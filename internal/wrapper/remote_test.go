package wrapper

import (
	"net"
	"testing"

	"disco/internal/algebra"
	"disco/internal/stats"
	"disco/internal/types"
)

// startRemote serves an object wrapper on a loopback listener and returns
// its address.
func startRemote(t *testing.T, w Wrapper) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go Serve(ln, w)
	return ln.Addr().String()
}

func TestRemoteWrapperEndToEnd(t *testing.T) {
	backend := newObjWrapper(t, 400)
	addr := startRemote(t, backend)

	rw, err := DialRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()

	// Registration payload round-tripped.
	if rw.Name() != "obj1" {
		t.Errorf("name = %q", rw.Name())
	}
	if got := rw.Collections(); len(got) != 1 || got[0] != "Employee" {
		t.Errorf("collections = %v", got)
	}
	ext, ok := rw.ExtentStats("Employee")
	if !ok || ext.CountObject != 400 {
		t.Errorf("extent = %+v, %v", ext, ok)
	}
	ast, ok := rw.AttributeStats("Employee", "id")
	if !ok || !ast.Indexed || ast.CountDistinct != 400 ||
		ast.Min.AsInt() != 0 || ast.Max.AsInt() != 399 {
		t.Errorf("id stats = %+v", ast)
	}
	if rw.CostRules() == "" {
		t.Error("cost rules should cross the wire")
	}
	if !rw.Capabilities().Join {
		t.Error("capabilities should cross the wire")
	}
	schema, err := rw.Schema("Employee")
	if err != nil || schema.Len() != 3 {
		t.Fatalf("schema = %v, %v", schema, err)
	}
	if _, err := rw.Schema("Nope"); err == nil {
		t.Error("unknown collection should fail")
	}

	// Execute a subplan remotely.
	plan := algebra.Select(algebra.Scan("obj1", "Employee"),
		algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "id"}, stats.CmpLT, types.Int(7)))
	if err := algebra.Resolve(plan, wrapperSchemaSource{rw}); err != nil {
		t.Fatal(err)
	}
	res, err := rw.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].Kind() != types.KindString {
		t.Errorf("string fields should decode as strings: %v", res.Rows[0])
	}
	// The remote's virtual time crossed the wire.
	if res.VirtualMS <= 0 {
		t.Error("the result should carry the remote virtual time")
	}

	// Execution errors propagate.
	bad := algebra.Submit(plan.Clone(), "obj1")
	bad.OutSchema = plan.OutSchema
	if _, err := rw.Execute(bad); err == nil {
		t.Error("remote nested submit should fail")
	}
}

func TestRemoteWrapperRowsMatchLocal(t *testing.T) {
	backend := newObjWrapper(t, 200)
	addr := startRemote(t, backend)
	rw, err := DialRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()

	plan := func() *algebra.Node {
		p := algebra.Project(
			algebra.Select(algebra.Scan("obj1", "Employee"),
				algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "salary"}, stats.CmpGE, types.Int(1090))),
			"Employee.name", "Employee.salary")
		if err := algebra.Resolve(p, wrapperSchemaSource{backend}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	local, err := backend.Execute(plan())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := rw.Execute(plan())
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Rows) != len(remote.Rows) {
		t.Fatalf("local %d rows, remote %d", len(local.Rows), len(remote.Rows))
	}
	for i := range local.Rows {
		if !local.Rows[i].Equal(remote.Rows[i]) {
			t.Errorf("row %d differs: %v vs %v", i, local.Rows[i], remote.Rows[i])
		}
	}
}
