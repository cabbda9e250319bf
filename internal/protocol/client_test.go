package protocol

import (
	"bufio"
	"net"
	"strings"
	"testing"
)

// fakeServer answers protocol requests on an in-memory pipe with canned
// handler logic, exercising the client side in isolation.
func fakeServer(t *testing.T, handle func(req Request, w net.Conn)) *Client {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	go func() {
		sc := bufio.NewScanner(serverEnd)
		for sc.Scan() {
			req, err := ParseRequest(sc.Text())
			if err != nil {
				WriteError(serverEnd, err)
				continue
			}
			handle(req, serverEnd)
		}
	}()
	c := NewClient(clientEnd)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientPingCount(t *testing.T) {
	c := fakeServer(t, func(req Request, w net.Conn) {
		switch req.Cmd {
		case CmdPing:
			w.Write(AppendResults(nil, nil, ResponseMeta{}))
		case CmdCount:
			w.Write(AppendPairs(nil, map[string]string{"count": "42"}))
		}
	})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	n, err := c.Count()
	if err != nil || n != 42 {
		t.Fatalf("count %d %v", n, err)
	}
}

func TestClientQuerySendsParams(t *testing.T) {
	var got Request
	c := fakeServer(t, func(req Request, w net.Conn) {
		got = req
		w.Write(AppendResults(nil, []Result{{Key: "a b.jpg", Distance: 1.5}}, ResponseMeta{}))
	})
	results, err := c.Query("seed.jpg", QueryParams{
		K: 7, Mode: "sketch",
		Keywords: []string{"dog", "beach"},
		Attrs:    map[string]string{"collection": "Corel"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != CmdQuery || got.Args["key"] != "seed.jpg" || got.Args["k"] != "7" ||
		got.Args["mode"] != "sketch" || got.Args["keywords"] != "dog,beach" ||
		got.Args["attr:collection"] != "Corel" {
		t.Fatalf("server saw %+v", got)
	}
	if len(results) != 1 || results[0].Key != "a b.jpg" || results[0].Distance != 1.5 {
		t.Fatalf("results %+v", results)
	}
}

func TestClientQueryFileAndAdd(t *testing.T) {
	var cmds []string
	c := fakeServer(t, func(req Request, w net.Conn) {
		cmds = append(cmds, req.Cmd)
		w.Write(AppendResults(nil, nil, ResponseMeta{}))
	})
	if _, err := c.QueryFile("/tmp/x.png", QueryParams{K: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddFile("/tmp/x.png", map[string]string{"note": "new"}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(cmds, ",") != CmdQueryFile+","+CmdAddFile {
		t.Fatalf("cmds %v", cmds)
	}
}

func TestClientSearchAndInfo(t *testing.T) {
	c := fakeServer(t, func(req Request, w net.Conn) {
		switch req.Cmd {
		case CmdSearch:
			w.Write(AppendResults(nil, []Result{{Key: "x"}, {Key: "y"}}, ResponseMeta{}))
		case CmdInfo:
			w.Write(AppendPairs(nil, map[string]string{"key": "x", "attr:note": "two words"}))
		}
	})
	results, err := c.Search([]string{"dog"}, nil)
	if err != nil || len(results) != 2 {
		t.Fatalf("search: %v %v", results, err)
	}
	info, err := c.Info("x")
	if err != nil {
		t.Fatal(err)
	}
	if info["attr:note"] != "two words" {
		t.Fatalf("info %v", info)
	}
}

func TestClientServerError(t *testing.T) {
	c := fakeServer(t, func(req Request, w net.Conn) {
		WriteError(w, &ServerError{Msg: "boom"})
	})
	_, err := c.Query("x", QueryParams{})
	se, ok := err.(*ServerError)
	if !ok || !strings.Contains(se.Msg, "boom") {
		t.Fatalf("err %T %v", err, err)
	}
}

func TestClientMalformedResultLine(t *testing.T) {
	c := fakeServer(t, func(req Request, w net.Conn) {
		w.Write([]byte("OK 1\nnot-a-result\n"))
	})
	if _, err := c.Query("x", QueryParams{}); err == nil {
		t.Fatal("malformed result accepted")
	}
}
