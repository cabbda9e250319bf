package trace

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Handler serves retained traces as JSON at its mount point (/debug/traces):
//
//	?slow=1   only the slow-query log
//	?id=<id>  one trace by hex ID (404 if not retained)
//	?n=<k>    cap the number of traces returned
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")

		if idStr := r.URL.Query().Get("id"); idStr != "" {
			id, err := ParseTraceID(idStr)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			tr := t.Find(id)
			if tr == nil {
				http.Error(w, "trace not retained", http.StatusNotFound)
				return
			}
			enc.Encode(tr)
			return
		}

		slowOnly := false
		if v := r.URL.Query().Get("slow"); v == "1" || v == "true" {
			slowOnly = true
		}
		n := 0
		if v := r.URL.Query().Get("n"); v != "" {
			if k, err := strconv.Atoi(v); err == nil && k > 0 {
				n = k
			}
		}

		resp := struct {
			Recent []*Trace `json:"recent,omitempty"`
			Slow   []*Trace `json:"slow"`
		}{Slow: clip(t.Slow(), n)}
		if !slowOnly {
			resp.Recent = clip(t.Recent(), n)
		}
		enc.Encode(resp)
	})
}

func clip(ts []*Trace, n int) []*Trace {
	if n > 0 && len(ts) > n {
		return ts[:n]
	}
	return ts
}
