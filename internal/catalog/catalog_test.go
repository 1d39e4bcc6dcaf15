package catalog

import (
	"strings"
	"testing"

	"disco/internal/filestore"
	"disco/internal/objstore"
	"disco/internal/types"
	"disco/internal/wrapper"
)

func buildCatalog(t *testing.T) *Catalog {
	t.Helper()

	ostore := objstore.Open(objstore.DefaultConfig())
	emp, err := ostore.CreateCollection("Employee", types.NewSchema(
		types.Field{Name: "id", Collection: "Employee", Type: types.KindInt},
		types.Field{Name: "salary", Collection: "Employee", Type: types.KindInt},
	), 56)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		emp.Insert(types.Row{types.Int(int64(i)), types.Int(int64(1000 + i))})
	}
	if err := emp.CreateIndex("id", true); err != nil {
		t.Fatal(err)
	}

	fstore := filestore.Open(filestore.DefaultConfig())
	doc, err := fstore.CreateFile("Docs", types.NewSchema(
		types.Field{Name: "id", Collection: "Docs", Type: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	doc.Append(types.Row{types.Int(1)})

	cat := New()
	if err := cat.Register(wrapper.NewObjWrapper("obj1", ostore)); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(wrapper.NewFileWrapper("files", fstore)); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestRegisterAndLookups(t *testing.T) {
	cat := buildCatalog(t)
	if got := cat.Wrappers(); len(got) != 2 || got[0] != "files" || got[1] != "obj1" {
		t.Errorf("Wrappers = %v", got)
	}
	if !cat.HasCollection("obj1", "Employee") || cat.HasCollection("obj1", "Nope") {
		t.Error("HasCollection")
	}
	if !cat.HasCollection("obj1", "employee") {
		t.Error("collection lookup should be case-insensitive")
	}
	if !cat.HasAttribute("obj1", "Employee", "salary") {
		t.Error("HasAttribute qualified")
	}
	if !cat.HasAttribute("obj1", "", "salary") {
		t.Error("HasAttribute any-collection")
	}
	if cat.HasAttribute("obj1", "", "zzz") {
		t.Error("HasAttribute should miss")
	}
	s, err := cat.CollectionSchema("obj1", "Employee")
	if err != nil || s.Len() != 2 {
		t.Errorf("schema = %v, %v", s, err)
	}
	if _, err := cat.CollectionSchema("obj1", "Nope"); err == nil {
		t.Error("unknown schema should fail")
	}
}

func TestStatsExposure(t *testing.T) {
	cat := buildCatalog(t)
	ext, ok := cat.Extent("obj1", "Employee")
	if !ok || ext.CountObject != 100 {
		t.Errorf("extent = %+v, %v", ext, ok)
	}
	ast, ok := cat.Attribute("obj1", "Employee", "id")
	if !ok || !ast.Indexed || ast.CountDistinct != 100 {
		t.Errorf("attribute = %+v, %v", ast, ok)
	}
	// The stats-less file wrapper exposes nothing.
	if _, ok := cat.Extent("files", "Docs"); ok {
		t.Error("file wrapper should expose no extent stats")
	}
	if _, ok := cat.Attribute("files", "Docs", "id"); ok {
		t.Error("file wrapper should expose no attribute stats")
	}
	// But its schema is known.
	if !cat.HasCollection("files", "Docs") {
		t.Error("file collection should be registered")
	}
}

func TestCapabilitiesAndFind(t *testing.T) {
	cat := buildCatalog(t)
	caps, ok := cat.Capabilities("files")
	if !ok || caps.Join {
		t.Errorf("files caps = %+v", caps)
	}
	if _, ok := cat.Capabilities("nope"); ok {
		t.Error("unknown wrapper should miss")
	}
	if got := cat.FindCollection("Employee"); len(got) != 1 || got[0] != "obj1" {
		t.Errorf("FindCollection = %v", got)
	}
	if got := cat.FindCollection("docs"); len(got) != 1 || got[0] != "files" {
		t.Errorf("case-insensitive FindCollection = %v", got)
	}
	if got := cat.FindCollection("zzz"); got != nil {
		t.Errorf("missing collection = %v", got)
	}
}

func TestCatalogString(t *testing.T) {
	cat := buildCatalog(t)
	s := cat.String()
	for _, want := range []string{"wrapper obj1", "Employee", "[100 objects"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestEntryCostRules(t *testing.T) {
	cat := buildCatalog(t)
	e, ok := cat.Entry("obj1")
	if !ok || e.CostRules == "" {
		t.Error("obj wrapper rules should be captured at registration")
	}
	f, ok := cat.Entry("files")
	if !ok || f.CostRules != "" {
		t.Error("file wrapper should have no rules")
	}
}
