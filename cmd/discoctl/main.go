// Command discoctl is the interactive client for a discod mediator
// server: a small SQL shell over the wire protocol of internal/proto.
//
// Usage:
//
//	discoctl [-connect localhost:4077[,host2:4177...]] [query]
//
// With a query argument it runs once and exits; otherwise it reads
// queries from standard input. -connect accepts a comma-separated list
// of addresses — a replica set, typically the replicas behind a
// discorouter: queries and admin ops go to the first address, while
// \stats scrapes every address and renders one aggregated table (one
// row per replica plus a TOTAL row) instead of per-server JSON.
// Shell commands:
//
//	\explain <sql>   show the chosen plan with cost annotations
//	\analyze <sql>   execute and show the plan with estimated vs actual
//	\catalog         dump the mediator catalog
//	\history         dump the recorded cost-vector database
//	\feedback        dump the execution-feedback q-error table
//	\stats           dump the serving counters (JSON), including the
//	                 plan-cache and result-cache hit/miss/eviction view
//	\reregister <w>  re-run the registration phase for wrapper <w>
//	\setlink <w> <latencyMS> <perByteMS>  perturb a wrapper's link
//	\quit            exit
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"disco/internal/proto"
)

func main() {
	addr := flag.String("connect", "localhost:4077", "mediator address, or a comma-separated replica list")
	flag.Parse()

	addrs := splitAddrs(*addr)
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "discoctl: no addresses in -connect")
		os.Exit(1)
	}
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "discoctl:", err)
		os.Exit(1)
	}
	defer conn.Close()
	r := proto.NewReader(conn)

	dispatch := func(line string) bool {
		req := parseLine(line)
		if req.Op == "stats" && len(addrs) > 1 {
			return aggregateStats(addrs)
		}
		return roundtrip(conn, r, req)
	}

	if q := strings.Join(flag.Args(), " "); strings.TrimSpace(q) != "" {
		if !dispatch(q) {
			os.Exit(1)
		}
		return
	}

	fmt.Println("connected to", strings.Join(addrs, ", "), "— \\quit to exit")
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("disco> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			fmt.Print("disco> ")
			continue
		}
		if line == `\quit` || line == `\q` {
			return
		}
		dispatch(line)
		fmt.Print("disco> ")
	}
}

func splitAddrs(spec string) []string {
	var out []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// statsView is the slice of a discod stats payload the aggregated table
// renders. Mediator counters are serialized under their Go field names
// (mediator.Stats carries no JSON tags).
type statsView struct {
	Mediator struct {
		QueriesServed   int64
		QueryErrors     int64
		Shed            int64
		InFlight        int
		PartialAnswers  int64
		PlanCacheHits   int64
		PlanCacheMisses int64
		ResultCacheHits int64
	} `json:"mediator"`
	Accepted    int64  `json:"accepted"`
	ActiveConns int    `json:"active_conns"`
	Epoch       uint64 `json:"epoch"`
}

// aggregateStats scrapes every replica's stats op and renders one table:
// a row per replica and a TOTAL row, the fleet view a federation
// operator reads instead of n JSON dumps.
func aggregateStats(addrs []string) bool {
	header := []string{"replica", "served", "errors", "shed", "inflight", "partials",
		"plan-hits", "rc-hits", "conns", "epoch"}
	rows := [][]string{header}
	var total statsView
	ok := true
	for _, a := range addrs {
		var v statsView
		if err := scrapeInto(a, &v); err != nil {
			fmt.Fprintf(os.Stderr, "discoctl: %s: %v\n", a, err)
			rows = append(rows, []string{a, "-", "-", "-", "-", "-", "-", "-", "-", "-"})
			ok = false
			continue
		}
		m := &v.Mediator
		rows = append(rows, []string{a,
			fmt.Sprint(m.QueriesServed), fmt.Sprint(m.QueryErrors), fmt.Sprint(m.Shed),
			fmt.Sprint(m.InFlight), fmt.Sprint(m.PartialAnswers),
			fmt.Sprint(m.PlanCacheHits), fmt.Sprint(m.ResultCacheHits),
			fmt.Sprint(v.ActiveConns), fmt.Sprint(v.Epoch)})
		total.Mediator.QueriesServed += m.QueriesServed
		total.Mediator.QueryErrors += m.QueryErrors
		total.Mediator.Shed += m.Shed
		total.Mediator.InFlight += m.InFlight
		total.Mediator.PartialAnswers += m.PartialAnswers
		total.Mediator.PlanCacheHits += m.PlanCacheHits
		total.Mediator.ResultCacheHits += m.ResultCacheHits
		total.ActiveConns += v.ActiveConns
	}
	tm := &total.Mediator
	rows = append(rows, []string{"TOTAL",
		fmt.Sprint(tm.QueriesServed), fmt.Sprint(tm.QueryErrors), fmt.Sprint(tm.Shed),
		fmt.Sprint(tm.InFlight), fmt.Sprint(tm.PartialAnswers),
		fmt.Sprint(tm.PlanCacheHits), fmt.Sprint(tm.ResultCacheHits),
		fmt.Sprint(total.ActiveConns), "-"})

	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		for ci, cell := range row {
			fmt.Printf("%-*s  ", widths[ci], cell)
		}
		fmt.Println()
		if ri == 0 {
			for _, w := range widths {
				fmt.Print(strings.Repeat("-", w), "  ")
			}
			fmt.Println()
		}
	}
	return ok
}

// scrapeInto runs one stats op against addr on a fresh connection.
func scrapeInto(addr string, v *statsView) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := proto.Write(conn, &proto.Request{Op: "stats"}); err != nil {
		return err
	}
	resp, err := proto.NewReader(conn).ReadResponse()
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("stats op: %s", resp.Error)
	}
	return json.Unmarshal([]byte(resp.Text), v)
}

func parseLine(line string) *proto.Request {
	switch {
	case strings.HasPrefix(line, `\explain `):
		return &proto.Request{Op: "explain", SQL: strings.TrimPrefix(line, `\explain `)}
	case strings.HasPrefix(line, `\analyze `):
		return &proto.Request{Op: "explain-analyze", SQL: strings.TrimPrefix(line, `\analyze `)}
	case strings.HasPrefix(line, "explain-analyze "):
		return &proto.Request{Op: "explain-analyze", SQL: strings.TrimPrefix(line, "explain-analyze ")}
	case line == `\catalog`:
		return &proto.Request{Op: "catalog"}
	case line == `\history`:
		return &proto.Request{Op: "history"}
	case line == `\feedback`:
		return &proto.Request{Op: "feedback"}
	case line == `\stats`:
		return &proto.Request{Op: "stats"}
	case strings.HasPrefix(line, `\reregister `):
		return &proto.Request{Op: "reregister", Arg: strings.TrimSpace(strings.TrimPrefix(line, `\reregister `))}
	case strings.HasPrefix(line, `\setlink `):
		return &proto.Request{Op: "setlink", Arg: strings.TrimSpace(strings.TrimPrefix(line, `\setlink `))}
	default:
		return &proto.Request{Op: "query", SQL: line}
	}
}

func roundtrip(conn net.Conn, r *proto.Reader, req *proto.Request) bool {
	if err := proto.Write(conn, req); err != nil {
		fmt.Fprintln(os.Stderr, "discoctl:", err)
		return false
	}
	resp, err := r.ReadResponse()
	if err != nil {
		fmt.Fprintln(os.Stderr, "discoctl:", err)
		return false
	}
	if !resp.OK {
		if resp.Overloaded {
			fmt.Println("overloaded:", resp.Error, "(retry after backoff)")
		} else {
			fmt.Println("error:", resp.Error)
		}
		return false
	}
	if resp.Text != "" {
		fmt.Println(resp.Text)
	}
	if len(resp.Columns) > 0 {
		printTable(resp)
	}
	return true
}

func printTable(resp *proto.Response) {
	widths := make([]int, len(resp.Columns))
	for i, c := range resp.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(resp.Rows))
	for ri, row := range resp.Rows {
		cells[ri] = make([]string, len(row))
		for ci, c := range row {
			s := fmt.Sprint(proto.EncodeConstant(c))
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range resp.Columns {
		fmt.Printf("%-*s  ", widths[i], c)
	}
	fmt.Println()
	for i := range resp.Columns {
		fmt.Print(strings.Repeat("-", widths[i]), "  ")
	}
	fmt.Println()
	const maxRows = 40
	for ri, row := range cells {
		if ri == maxRows {
			fmt.Printf("... (%d more rows)\n", len(cells)-maxRows)
			break
		}
		for ci, s := range row {
			fmt.Printf("%-*s  ", widths[ci], s)
		}
		fmt.Println()
	}
	if resp.Partial {
		fmt.Printf("(%d rows, %.1f virtual ms; PARTIAL — unavailable: %s)\n",
			len(resp.Rows), resp.ElapsedMS, strings.Join(resp.Excluded, ", "))
		return
	}
	fmt.Printf("(%d rows, %.1f virtual ms)\n", len(resp.Rows), resp.ElapsedMS)
}
