// Command ferret-query is the command-line client for a running ferretd
// (paper §4.1.4): it issues queries with adjustable parameters so scripts
// and users can experiment without restarting the server.
//
//	ferret-query -addr 127.0.0.1:7070 ping
//	ferret-query count
//	ferret-query query -key vary/set00/img00.png -k 10 -mode filtering
//	ferret-query query -batch -key img00.png -key img01.png -k 5
//	ferret-query query -key img00.png -trace
//	ferret-query queryfile -path ./new.png -k 5
//	ferret-query search -keywords dog,beach
//	ferret-query info -key vary/set00/img00.png
//	ferret-query add -path ./new.png -attr note="a new dog"
//	ferret-query traces -slow
//
// -trace asks the server to trace the query and prints the per-stage
// latency breakdown under the results; traces lists the server's retained
// traces (recent sample + slow-query log).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ferret/internal/evaltool"
	"ferret/internal/protocol"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "ferretd protocol address")
	timeout := flag.Duration("timeout", 30*time.Second, "dial and per-request timeout (0 = none)")
	proto := flag.String("proto", "v2", "wire framing: v2 upgrades to the binary protocol (staying on text against a server that predates it), text stays on the line protocol")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	client, err := protocol.DialTimeout(*addr, *timeout)
	if err != nil {
		fatal("connecting to %s: %v", *addr, err)
	}
	defer client.Close()
	client.SetTimeout(*timeout)
	switch *proto {
	case "v2":
		// Best-effort upgrade: a server that predates v2 answers ERR and the
		// connection keeps speaking the line protocol.
		if _, err := client.TryUpgradeV2(); err != nil {
			fatal("negotiating protocol with %s: %v", *addr, err)
		}
	case "text":
	default:
		fatal("invalid -proto %q (v2 or text)", *proto)
	}

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "ping":
		if err := client.Ping(); err != nil {
			fatal("ping: %v", err)
		}
		fmt.Println("pong")

	case "count":
		n, err := client.Count()
		if err != nil {
			fatal("count: %v", err)
		}
		fmt.Println(n)

	case "query", "queryfile":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		keys := keyValues{}
		fs.Var(&keys, "key", "object key (query; repeatable with -batch)")
		batch := fs.Bool("batch", false, "send all -key queries as one BATCHQUERY request (query)")
		path := fs.String("path", "", "data file (queryfile)")
		k := fs.Int("k", 10, "number of results")
		mode := fs.String("mode", "filtering", "filtering, bruteforce or sketch")
		keywords := fs.String("keywords", "", "comma-separated keyword restriction")
		budget := fs.Duration("budget", 0, "per-query time budget; an expired budget returns a degraded answer (0 = server default)")
		traced := fs.Bool("trace", false, "trace the query and print the per-stage latency breakdown")
		attrFlags := attrValues{}
		fs.Var(&attrFlags, "attr", "attribute restriction name=value (repeatable)")
		fs.Parse(rest)
		params := protocol.QueryParams{K: *k, Mode: *mode, Attrs: attrFlags.m, Budget: *budget, Trace: *traced}
		if *keywords != "" {
			params.Keywords = strings.Split(*keywords, ",")
		}
		if *batch {
			if cmd != "query" || len(keys.v) == 0 {
				fatal("-batch requires the query command with at least one -key")
			}
			items, err := client.BatchQuery(keys.v, params)
			if err != nil {
				fatal("batch query: %v", err)
			}
			for i, it := range items {
				fmt.Printf("# %s\n", keys.v[i])
				if it.Err != "" {
					fmt.Printf("     error: %s\n", it.Err)
					continue
				}
				if it.Meta.Degraded {
					fmt.Fprintf(os.Stderr, "ferret-query: %s: degraded answer\n", keys.v[i])
				}
				if it.Meta.Mode != "" {
					fmt.Printf("     filter mode: %s\n", it.Meta.Mode)
				}
				if it.Meta.Cache != "" {
					fmt.Printf("     cache: %s\n", it.Meta.Cache)
				}
				printResults(it.Results, true)
				printTrace(it.Meta)
			}
			return
		}
		var results []protocol.Result
		var meta protocol.ResponseMeta
		var err error
		if cmd == "query" {
			if len(keys.v) != 1 {
				fatal("query requires exactly one -key (use -batch for several)")
			}
			results, meta, err = client.QueryMeta(keys.v[0], params)
		} else {
			if *path == "" {
				fatal("queryfile requires -path")
			}
			results, meta, err = client.QueryFileMeta(*path, params)
		}
		if err != nil {
			fatal("%s: %v", cmd, err)
		}
		if meta.Degraded {
			fmt.Fprintln(os.Stderr, "ferret-query: degraded answer (time budget expired; tail ordered by sketch-estimated distance)")
		}
		if meta.Mode != "" {
			fmt.Printf("filter mode: %s\n", meta.Mode)
		}
		if meta.Cache != "" {
			fmt.Printf("cache: %s\n", meta.Cache)
		}
		printResults(results, true)
		printTrace(meta)

	case "traces":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		n := fs.Int("n", 10, "traces per list")
		slow := fs.Bool("slow", false, "slow-query log only")
		fs.Parse(rest)
		pairs, err := client.Traces(*n, *slow)
		if err != nil {
			fatal("traces: %v", err)
		}
		keys := make([]string, 0, len(pairs))
		for k := range pairs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-9s %s\n", k, pairs[k])
		}
		if len(pairs) == 0 {
			fmt.Println("(no retained traces)")
		}

	case "search":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		keywords := fs.String("keywords", "", "comma-separated keywords (AND)")
		attrFlags := attrValues{}
		fs.Var(&attrFlags, "attr", "attribute equality name=value (repeatable)")
		fs.Parse(rest)
		var kw []string
		if *keywords != "" {
			kw = strings.Split(*keywords, ",")
		}
		results, err := client.Search(kw, attrFlags.m)
		if err != nil {
			fatal("search: %v", err)
		}
		printResults(results, false)

	case "eval":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		benchFile := fs.String("bench", "", "benchmark file of similarity sets")
		mode := fs.String("mode", "filtering", "search mode")
		k := fs.Int("k", 0, "results per query (0 = auto from set sizes)")
		fs.Parse(rest)
		if *benchFile == "" {
			fatal("eval requires -bench")
		}
		f, err := os.Open(*benchFile)
		if err != nil {
			fatal("eval: %v", err)
		}
		sets, err := evaltool.ParseBenchmark(f)
		f.Close()
		if err != nil {
			fatal("eval: %v", err)
		}
		runner := &evaltool.RemoteRunner{
			Client: client,
			Params: protocol.QueryParams{Mode: *mode, K: *k},
		}
		rep, err := runner.Run(sets)
		if err != nil {
			fatal("eval: %v", err)
		}
		fmt.Println(rep)
		fmt.Printf("latency: p50=%v p95=%v\n", rep.P50QueryTime, rep.P95QueryTime)

	case "stats":
		pairs, err := client.Stats()
		if err != nil {
			fatal("stats: %v", err)
		}
		for k, v := range pairs {
			fmt.Printf("%s=%s\n", k, v)
		}

	case "delete":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		key := fs.String("key", "", "object key")
		fs.Parse(rest)
		if *key == "" {
			fatal("delete requires -key")
		}
		if err := client.Delete(*key); err != nil {
			fatal("delete: %v", err)
		}
		fmt.Println("deleted")

	case "info":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		key := fs.String("key", "", "object key")
		fs.Parse(rest)
		if *key == "" {
			fatal("info requires -key")
		}
		pairs, err := client.Info(*key)
		if err != nil {
			fatal("info: %v", err)
		}
		for k, v := range pairs {
			fmt.Printf("%s=%s\n", k, v)
		}

	case "add":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		path := fs.String("path", "", "data file to ingest")
		attrFlags := attrValues{}
		fs.Var(&attrFlags, "attr", "attribute name=value (repeatable)")
		fs.Parse(rest)
		if *path == "" {
			fatal("add requires -path")
		}
		if err := client.AddFile(*path, attrFlags.m); err != nil {
			fatal("add: %v", err)
		}
		fmt.Println("added")

	default:
		usage()
	}
}

// keyValues collects repeatable -key flags.
type keyValues struct{ v []string }

func (k *keyValues) String() string { return strings.Join(k.v, ",") }

func (k *keyValues) Set(s string) error {
	k.v = append(k.v, s)
	return nil
}

// attrValues collects repeatable -attr name=value flags.
type attrValues struct{ m map[string]string }

func (a *attrValues) String() string { return fmt.Sprint(a.m) }

func (a *attrValues) Set(v string) error {
	eq := strings.IndexByte(v, '=')
	if eq <= 0 {
		return fmt.Errorf("attribute must be name=value, got %q", v)
	}
	if a.m == nil {
		a.m = map[string]string{}
	}
	a.m[v[:eq]] = v[eq+1:]
	return nil
}

// printTrace renders a traced response's per-stage breakdown, e.g.
//
//	trace 6f1a2b3c4d5e6f70: parse 9µs → queue 310µs → scan 1.2ms → rank 400µs (total 1.9ms)
func printTrace(meta protocol.ResponseMeta) {
	if meta.TraceID == "" {
		return
	}
	parts := make([]string, 0, len(meta.Stages))
	total := ""
	for _, st := range meta.Stages {
		d := time.Duration(st.Dur).Round(time.Microsecond)
		if st.Name == "total" {
			total = d.String()
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %s", st.Name, d))
	}
	line := strings.Join(parts, " → ")
	if total != "" {
		if line != "" {
			line += " "
		}
		line += "(total " + total + ")"
	}
	fmt.Printf("trace %s: %s\n", meta.TraceID, line)
}

func printResults(results []protocol.Result, withDistance bool) {
	for i, r := range results {
		if withDistance {
			fmt.Printf("%3d  %-50s %.4f\n", i+1, r.Key, r.Distance)
		} else {
			fmt.Printf("%3d  %s\n", i+1, r.Key)
		}
	}
	if len(results) == 0 {
		fmt.Println("(no results)")
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ferret-query: "+format+"\n", args...)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ferret-query [-addr host:port] <command> [flags]
commands: ping, count, query, queryfile, search, info, add, delete, stats, traces, eval`)
	os.Exit(2)
}
