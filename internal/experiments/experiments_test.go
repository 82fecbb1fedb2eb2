package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func quick() Options { return Options{Quick: true, Seed: 1} }

func TestFig1Shape(t *testing.T) {
	s := Fig1(quick())
	if len(s.Y) != 3 || len(s.X) == 0 {
		t.Fatalf("curves %d×%d", len(s.Y), len(s.X))
	}
	for li, curve := range s.Y {
		// Frame loss decreases (weakly) with redundancy and reaches
		// near zero at the top of the sweep.
		for j := 1; j < len(curve); j++ {
			if curve[j] > curve[j-1]+0.05 {
				t.Errorf("curve %d not decreasing at %d: %v → %v", li, j, curve[j-1], curve[j])
			}
		}
		if curve[len(curve)-1] > 0.03 {
			t.Errorf("curve %d does not reach ≈0: %v", li, curve[len(curve)-1])
		}
		if curve[0] < 0.01 {
			t.Errorf("curve %d: no frame loss without FEC", li)
		}
	}
	// Higher packet loss ⇒ higher frame loss at zero redundancy.
	if !(s.Y[0][0] < s.Y[1][0] && s.Y[1][0] < s.Y[2][0]) {
		t.Errorf("loss ordering at red=0: %v %v %v", s.Y[0][0], s.Y[1][0], s.Y[2][0])
	}
	// The paper's headline: 1/3/5% loss need ≈25/30/35% FEC for ≈0 frame
	// loss. At those redundancy levels the frame loss must be near zero.
	needed := []float64{0.25, 0.30, 0.35}
	for li, loss := range fig1LossRates {
		for j, red := range s.X {
			if red >= needed[li] && s.Y[li][j] > math.Max(0.012, s.Y[li][0]*0.15) {
				t.Errorf("loss %v: at red %v frame loss %v not ≈0 (unprotected %v)", loss, red, s.Y[li][j], s.Y[li][0])
			}
		}
	}
}

func TestFig2Shape(t *testing.T) {
	s := Fig2(quick())
	if len(s.Y) != 6 {
		t.Fatalf("want 6 curves, got %d", len(s.Y))
	}
	// Recovery curves dominate their no-recovery counterparts on average.
	for i := 0; i < 3; i++ {
		noRC := s.Y[2*i]
		rc := s.Y[2*i+1]
		var a, b float64
		for j := range noRC {
			a += noRC[j]
			b += rc[j]
		}
		if b <= a {
			t.Errorf("loss level %d: RC mean %.3f not above no-RC %.3f", i, b, a)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tab := Table1(quick())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Ours must be the last row with the lowest latency.
	var ourLat string
	for _, row := range tab.Rows {
		if row[0] == "ours" {
			ourLat = row[3]
		}
	}
	if ourLat != "22" {
		t.Errorf("ours latency %q, want 22 ms", ourLat)
	}
}

func TestFig4aMonotoneDecline(t *testing.T) {
	s := Fig4a(quick())
	c := s.Y[0]
	if len(c) < 3 {
		t.Fatalf("too few points: %d", len(c))
	}
	if c[len(c)-1] >= c[0] {
		t.Errorf("no degradation: first %v last %v", c[0], c[len(c)-1])
	}
}

func TestFig4bMonotoneRateQuality(t *testing.T) {
	s := Fig4b(quick())
	c := s.Y[0]
	for j := 1; j < len(c); j++ {
		if c[j] <= c[j-1]-0.3 {
			t.Errorf("PSNR not increasing with rate at %d: %v → %v", j, c[j-1], c[j])
		}
	}
	if c[len(c)-1]-c[0] < 1 {
		t.Errorf("rate-quality span too flat: %v..%v", c[0], c[len(c)-1])
	}
}

func TestFig7Ordering(t *testing.T) {
	p, s := Fig7(quick())
	our := p.Col("our")
	nocode := p.Col("w/o point map")
	reuse := p.Col("reuse")
	for j := range p.X {
		if p.Y[our][j] <= p.Y[reuse][j] {
			t.Errorf("horizon %v: our %.2f not above reuse %.2f", p.X[j], p.Y[our][j], p.Y[reuse][j])
		}
		if p.Y[nocode][j] <= p.Y[reuse][j]-0.3 {
			t.Errorf("horizon %v: no-code %.2f below reuse %.2f", p.X[j], p.Y[nocode][j], p.Y[reuse][j])
		}
	}
	// SSIM sanity.
	if s.Y[our][0] <= 0 || s.Y[our][0] > 1 {
		t.Errorf("SSIM out of range: %v", s.Y[our][0])
	}
}

func TestFig8PartialAboveFig7(t *testing.T) {
	p7, _ := Fig7(quick())
	p8, _ := Fig8(quick())
	our := p8.Col("our")
	// Partial recovery sees half the truth, so its PSNR must exceed the
	// full-loss counterpart at the same horizon.
	for j := range p8.X {
		if p8.Y[our][j] <= p7.Y[our][j] {
			t.Errorf("horizon %v: partial %.2f not above full-loss %.2f", p8.X[j], p8.Y[our][j], p7.Y[our][j])
		}
	}
}

func TestFig10SRGain(t *testing.T) {
	p, s := Fig10(quick())
	up := p.Col("upsample")
	our := p.Col("our")
	for j := range p.X {
		if p.Y[our][j] <= p.Y[up][j] {
			t.Errorf("rung %v: SR %.2f not above upsample %.2f", p.X[j], p.Y[our][j], p.Y[up][j])
		}
	}
	_ = s
}

func TestVisualisationsWriteArtefacts(t *testing.T) {
	dir := t.TempDir()
	o := quick()
	o.OutDir = dir
	for name, fn := range map[string]func(Options) ([]string, error){
		"fig6": Fig6, "fig9": Fig9, "fig11": Fig11,
	} {
		paths, err := fn(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(paths) == 0 {
			t.Fatalf("%s: no artefacts", name)
		}
		for _, p := range paths {
			st, err := os.Stat(p)
			if err != nil || st.Size() < 100 {
				t.Fatalf("%s artefact %s missing/too small", name, p)
			}
		}
	}
	// Without OutDir the functions are silent no-ops.
	paths, err := Fig6(quick())
	if err != nil || len(paths) != 0 {
		t.Fatalf("no-outdir run: %v %v", paths, err)
	}
	// PGM header sanity.
	files, _ := filepath.Glob(filepath.Join(dir, "*.pgm"))
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte("P5\n")) {
		t.Fatal("not a P5 PGM")
	}
}

// TestFig11ArtefactOrder: Fig11 lists its artefacts in one fixed order
// (bicubic then sr per rung, truth last), so two runs print the same line.
func TestFig11ArtefactOrder(t *testing.T) {
	o := quick()
	o.OutDir = t.TempDir()
	var runs [2][]string
	for i := range runs {
		paths, err := Fig11(o)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = paths
	}
	if !slices.Equal(runs[0], runs[1]) {
		t.Fatalf("two Fig11 runs listed different artefacts:\n%v\n%v", runs[0], runs[1])
	}
	if p := runs[0]; len(p) != 9 || filepath.Base(p[0]) != "fig11_240p_bicubic.pgm" ||
		filepath.Base(p[1]) != "fig11_240p_sr.pgm" || filepath.Base(p[8]) != "fig11_truth.pgm" {
		t.Fatalf("artefact order %v, want bicubic then sr per rung, truth last", p)
	}
}

func TestCalibrateQualityOrdering(t *testing.T) {
	model, tab := CalibrateQuality(quick())
	if len(model.Recovered) != 5 || len(model.SR) != 5 || len(model.Reused) != 5 {
		t.Fatalf("model incomplete: %+v", model)
	}
	pts := model.Delivered.Points()
	if len(pts) < 5 {
		t.Fatalf("delivered map too small")
	}
	for i := range model.SR {
		mbps := 0.512 * 2 // arbitrary probe inside range
		_ = mbps
		if model.SR[i] <= model.Reused[i] {
			t.Errorf("rung %d: SR %.2f not above reuse %.2f", i, model.SR[i], model.Reused[i])
		}
		if model.Recovered[i] <= model.Reused[i]-0.5 {
			t.Errorf("rung %d: recovered %.2f below reuse %.2f", i, model.Recovered[i], model.Reused[i])
		}
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("table rows %d", len(tab.Rows))
	}
}

func TestTable2MatchesPaperCounts(t *testing.T) {
	tab := Table2(quick())
	if tab.Rows[0][1] != "45" || tab.Rows[0][2] != "62" || tab.Rows[0][3] != "53" || tab.Rows[0][4] != "68" {
		t.Fatalf("counts row %v", tab.Rows[0])
	}
}

func TestSystemTablesRender(t *testing.T) {
	o := quick()
	var buf bytes.Buffer
	for _, id := range []string{"fig12", "tab3", "fig13", "fig15", "fig17", "fig18", "lat", "cpu"} {
		if err := Run(id, o, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"fig12", "tab3", "fig13", "fig15", "fig17", "fig18", "latency", "cpu"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig14SeriesAligned(t *testing.T) {
	s := Fig14(quick())
	if len(s.Columns) != 4 {
		t.Fatalf("columns %v", s.Columns)
	}
	for i, col := range s.Y {
		if len(col) != len(s.X) {
			t.Fatalf("column %d length %d != %d", i, len(col), len(s.X))
		}
	}
}

func TestRegistryRunsUnknownID(t *testing.T) {
	if err := Run("nope", quick(), &bytes.Buffer{}); err == nil {
		t.Fatal("unknown id accepted")
	}
	if len(IDs()) < 20 {
		t.Fatalf("registry too small: %d", len(IDs()))
	}
}

func TestAblationsRender(t *testing.T) {
	o := quick()
	var buf bytes.Buffer
	for _, id := range []string{"abl-code", "abl-warp", "abl-pred", "abl-fec", "abl-flow", "abl-buffer"} {
		if err := Run(id, o, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if !strings.Contains(buf.String(), "Ablation") {
		t.Fatal("ablation output missing")
	}
}

func TestTablePrinterAlignment(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== x: t ==") || !strings.Contains(out, "note: n") {
		t.Fatalf("bad render: %q", out)
	}
}

func TestSeriesColLookup(t *testing.T) {
	s := &Series{Columns: []string{"a", "b"}}
	if s.Col("b") != 1 || s.Col("z") != -1 {
		t.Fatal("Col lookup broken")
	}
}
