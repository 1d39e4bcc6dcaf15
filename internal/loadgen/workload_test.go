package loadgen

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"disco/internal/proto"
	"disco/internal/types"
)

func testConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		Clients:     16,
		Requests:    400,
		Templates:   DemoTemplates(2000),
		Mix:         DefaultMix(),
		SampleEvery: 10,
	}
}

// TestGenerateDeterministic is the determinism gate: the same seed must
// produce a bit-identical schedule — same requests, same client/request
// assignment — on every call.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Clients, b.Clients) {
		t.Fatal("same seed produced different schedules")
	}
	if a.Digest() != b.Digest() {
		t.Fatal("same seed produced different digests")
	}
}

// TestGenerateSeedSensitivity: different seeds must produce different
// workload mixes (schedules and hot pools).
func TestGenerateSeedSensitivity(t *testing.T) {
	a, err := Generate(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() == b.Digest() {
		t.Fatal("different seeds produced identical schedules")
	}
	if reflect.DeepEqual(a.HotStatements(), b.HotStatements()) {
		t.Error("different seeds produced identical hot pools")
	}
}

// TestGenerateZipfSkew sanity-checks the hot-pool popularity skew: under
// a zipf draw the most popular hot statement must take a far larger
// share than the uniform 1/pool, and the hot fraction must track
// HotRatio.
func TestGenerateZipfSkew(t *testing.T) {
	cfg := testConfig(3)
	cfg.Clients = 8
	cfg.Requests = 2000
	cfg.Mix = Mix{} // queries only, so shares are exact
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	counts := make(map[string]int)
	hot, total := 0, 0
	for _, c := range s.Clients {
		for _, r := range c {
			total++
			if r.Hot {
				hot++
				counts[r.SQL]++
			}
		}
	}
	hotFrac := float64(hot) / float64(total)
	if hotFrac < DefaultHotRatio-0.05 || hotFrac > DefaultHotRatio+0.05 {
		t.Errorf("hot fraction = %.3f, want ~%.2f", hotFrac, DefaultHotRatio)
	}

	shares := make([]int, 0, len(counts))
	for _, n := range counts {
		shares = append(shares, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(shares)))
	top := float64(shares[0]) / float64(hot)
	uniform := 1.0 / float64(DefaultHotPool)
	if top < 3*uniform {
		t.Errorf("zipf skew missing: top statement share %.3f, uniform would be %.3f", top, uniform)
	}
}

// TestGenerateMixFractions: the event ops land near their configured
// per-10000 weights and carry valid arguments.
func TestGenerateMixFractions(t *testing.T) {
	cfg := testConfig(11)
	cfg.Clients = 8
	cfg.Requests = 5000
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := s.OpCounts()
	total := float64(s.Requests())
	for op, weight := range map[string]int{
		OpExplain:    cfg.Mix.Explain,
		OpAnalyze:    cfg.Mix.Analyze,
		OpReregister: cfg.Mix.Reregister,
		OpSetLink:    cfg.Mix.SetLink,
	} {
		frac := float64(counts[op]) / total
		want := float64(weight) / 10000
		if frac < want/2 || frac > want*2 {
			t.Errorf("op %s fraction = %.4f, want ~%.4f", op, frac, want)
		}
	}
	for _, c := range s.Clients {
		for _, r := range c {
			switch r.Op {
			case OpReregister:
				if r.Arg == "" || r.SQL != "" {
					t.Fatalf("bad reregister event: %+v", r)
				}
			case OpSetLink:
				if len(strings.Fields(r.Arg)) != 3 {
					t.Fatalf("bad setlink event arg %q", r.Arg)
				}
			case OpQuery, OpExplain, OpAnalyze:
				if r.SQL == "" {
					t.Fatalf("empty SQL for %s", r.Op)
				}
			}
		}
	}
}

// TestGenerateSampling: samples appear only on query ops, at roughly the
// configured spacing.
func TestGenerateSampling(t *testing.T) {
	s, err := Generate(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	samples, queries := 0, 0
	for _, c := range s.Clients {
		for _, r := range c {
			if r.Op == OpQuery {
				queries++
				if r.Sample {
					samples++
				}
			} else if r.Sample {
				t.Fatalf("sample mark on non-query op %s", r.Op)
			}
		}
	}
	if samples == 0 {
		t.Fatal("no samples generated")
	}
	if ratio := float64(queries) / float64(samples); ratio < 8 || ratio > 12 {
		t.Errorf("sample spacing = %.1f, want ~10", ratio)
	}
}

// TestParseMix round-trips the CLI mix syntax and rejects bad specs.
func TestParseMix(t *testing.T) {
	m, err := ParseMix("explain=200, analyze=100,reregister=20,setlink=30")
	if err != nil {
		t.Fatal(err)
	}
	if m != DefaultMix() {
		t.Errorf("parsed %+v, want %+v", m, DefaultMix())
	}
	if m, err := ParseMix(""); err != nil || m != (Mix{}) {
		t.Errorf("empty spec: %+v, %v", m, err)
	}
	for _, bad := range []string{"explain", "explain=x", "bogus=3", "explain=-1", "explain=9000,analyze=2000"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) should fail", bad)
		}
	}
}

// TestGenerateRejectsBadConfig pins the config validation.
func TestGenerateRejectsBadConfig(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"no clients":   func(c *Config) { c.Clients = 0 },
		"no requests":  func(c *Config) { c.Requests = 0 },
		"hot ratio >1": func(c *Config) { c.HotRatio = 1.5 },
		"zipf s <= 1":  func(c *Config) { c.ZipfS = 0.9 },
		"mix overflow": func(c *Config) { c.Mix = Mix{Explain: 9000, Analyze: 2000} },
	} {
		cfg := testConfig(1)
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: Generate should fail", name)
		}
	}
}

// TestHashRowsOrderInsensitive pins the oracle digest: row order must
// not matter, content must.
func TestHashRowsOrderInsensitive(t *testing.T) {
	a := [][]any{{int64(1), "x", true}, {int64(2), "y", false}, {int64(2), "y", false}}
	b := [][]any{{int64(2), "y", false}, {int64(1), "x", true}, {int64(2), "y", false}}
	if HashRows(a) != HashRows(b) {
		t.Error("row order changed the digest")
	}
	c := [][]any{{int64(1), "x", true}, {int64(2), "y", false}}
	if HashRows(a) == HashRows(c) {
		t.Error("dropping a duplicate row kept the digest")
	}
	// One value may be a float64 on one side of a comparison and an int64
	// on the other (a SUM over ints, say).
	wire := [][]any{{float64(7), "s"}}
	oracle := [][]any{{int64(7), "s"}}
	if HashRows(wire) != HashRows(oracle) {
		t.Error("float64(7) and int64(7) must hash identically")
	}
}

// TestHashRowsGolden pins the digest itself: every oracle digest and
// every recorded soak digest was computed by the fmt- and hash/fnv-based
// HashRows, and the expected values below come from that implementation.
func TestHashRowsGolden(t *testing.T) {
	rows := [][]any{
		{int64(0), int64(-1), int64(math.MaxInt64), int64(math.MinInt64), int(42)},
		{float64(7), float64(-3), 2.5, -0.125, 1e300, 1e-7, math.Copysign(0, -1)},
		{math.NaN(), math.Inf(1), math.Inf(-1), float64(1 << 53), -9.223372036854775808e18},
		{"", "héllo\x00world", "line\nbreak", nil, true, false},
		{},
		{int64(1234567), "x"},
		{int64(1234567), "x"},
	}
	want := []uint64{
		0xeb67d2ccd8645f81, 0xd0e4b4c9079cc535, 0xb125607194441679, 0xe34d149f5b9759fd,
		0x33490e2d67a6ed2d, 0x858a4f3c330186ad, 0x858a4f3c330186ad,
	}
	for i, row := range rows {
		if got := HashRows([][]any{row}); got != want[i] {
			t.Errorf("row %d %v: digest %#x, want %#x", i, row, got, want[i])
		}
	}
	const all = 0x9530f55c46919e1f
	if got := HashRows(rows); got != all {
		t.Errorf("all rows: digest %#x, want %#x", got, uint64(all))
	}
	rows[0], rows[5], rows[2], rows[3] = rows[5], rows[0], rows[3], rows[2]
	if got := HashRows(rows); got != all {
		t.Errorf("all rows, permuted: digest %#x, want %#x", got, uint64(all))
	}
	if got := HashRows([][]any(nil)); got != 0 {
		t.Errorf("no rows: digest %#x, want 0", got)
	}
	if got := HashRows([][]any{{int32(5), uint8(7)}}); got != 0xc3abebb4654f9575 {
		t.Errorf("values of other Go types: digest %#x, want 0xc3abebb4654f9575", got)
	}
	if n := testing.AllocsPerRun(10, func() { HashRows(rows[:6]) }); n > 1 {
		t.Errorf("HashRows made %.0f allocations over strings, ints and floats, want at most 1", n)
	}
}

// TestHashRowsTypedAsBoxed: typed rows digest exactly as their boxed
// values do, so the wire side, which hashes typed rows, and an oracle
// that boxes its rows agree. Hashing typed rows boxes nothing.
func TestHashRowsTypedAsBoxed(t *testing.T) {
	values := types.Row{
		types.Int(math.MaxInt64), types.Int(math.MinInt64), types.Int(1<<53 + 1), types.Int(0),
		types.Float(2), types.Float(math.Copysign(0, -1)), types.Float(2.5), types.Float(1e300),
		types.Float(math.NaN()), types.Float(math.Inf(1)), types.Float(math.Inf(-1)),
		types.Float(-9.223372036854775808e18), types.Str(""), types.Str("a\nb\x00c"), types.Null,
		types.Bool(true), types.Bool(false),
	}
	typed := []types.Row{values}
	for _, v := range values {
		typed = append(typed, types.Row{v})
	}
	boxed := make([][]any, len(typed))
	for i, row := range typed {
		boxed[i] = proto.EncodeRow(row)
	}
	for i := range typed {
		if got, want := HashRows(typed[i:i+1]), HashRows(boxed[i:i+1]); got != want {
			t.Errorf("row %v: typed digest %#x, boxed %#x", typed[i], got, want)
		}
	}
	if HashRows(typed) != HashRows(boxed) {
		t.Error("typed and boxed result sets digest differently")
	}
	if HashRows([]types.Row{{types.Float(7)}}) != HashRows([]types.Row{{types.Int(7)}}) {
		t.Error("Float(7) and Int(7) must hash identically")
	}
	typedAllocs := testing.AllocsPerRun(10, func() { HashRows(typed) })
	boxedAllocs := testing.AllocsPerRun(10, func() { HashRows(boxed) })
	t.Logf("allocations: typed %.0f, boxed %.0f", typedAllocs, boxedAllocs)
	if typedAllocs > 1 || boxedAllocs > 1 {
		t.Errorf("HashRows made %.0f allocations over typed rows and %.0f over boxed rows, want at most 1",
			typedAllocs, boxedAllocs)
	}
}

// Requests reports the total request count of the schedule.
func (s *Schedule) Requests() int {
	n := 0
	for _, c := range s.Clients {
		n += len(c)
	}
	return n
}

// OpCounts tallies the schedule by operation.
func (s *Schedule) OpCounts() map[string]int {
	out := make(map[string]int)
	for _, c := range s.Clients {
		for _, r := range c {
			out[r.Op]++
		}
	}
	return out
}

// HotStatements lists the distinct hot-pool SQL texts of the schedule,
// sorted, most clients share; useful for cache-warming and diagnostics.
func (s *Schedule) HotStatements() []string {
	seen := make(map[string]bool)
	for _, c := range s.Clients {
		for _, r := range c {
			if r.Hot && r.Op == OpQuery {
				seen[r.SQL] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for sql := range seen {
		out = append(out, sql)
	}
	sort.Strings(out)
	return out
}
