package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"nerve/internal/telemetry"
)

// cExperiments counts harness runs; each run also emits an "experiment"
// event carrying the experiment ID and its wall-clock milliseconds.
var cExperiments = telemetry.NewCounter("experiments_run")

// Runner executes one experiment and writes its rendered results.
type Runner func(opts Options, w io.Writer) error

// printTables renders any mix of tables/series.
func printAll(w io.Writer, items ...interface{ Fprint(io.Writer) }) error {
	for _, it := range items {
		it.Fprint(w)
	}
	return nil
}

// Registry maps experiment IDs (DESIGN.md §3) to runners.
var Registry = map[string]Runner{
	"fig1":  func(o Options, w io.Writer) error { return printAll(w, Fig1(o)) },
	"fig2":  func(o Options, w io.Writer) error { return printAll(w, Fig2(o)) },
	"tab1":  func(o Options, w io.Writer) error { return printAll(w, Table1(o)) },
	"fig4a": func(o Options, w io.Writer) error { return printAll(w, Fig4a(o)) },
	"fig4b": func(o Options, w io.Writer) error { return printAll(w, Fig4b(o)) },
	"fig6": func(o Options, w io.Writer) error {
		paths, err := Fig6(o)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== fig6: recovery visualisation ==\n  artefacts: %v\n\n", paths)
		return nil
	},
	"fig7": func(o Options, w io.Writer) error { p, s := Fig7(o); return printAll(w, p, s) },
	"fig8": func(o Options, w io.Writer) error { p, s := Fig8(o); return printAll(w, p, s) },
	"fig9": func(o Options, w io.Writer) error {
		paths, err := Fig9(o)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== fig9: concealment visualisation ==\n  artefacts: %v\n\n", paths)
		return nil
	},
	"fig10": func(o Options, w io.Writer) error { p, s := Fig10(o); return printAll(w, p, s) },
	"fig11": func(o Options, w io.Writer) error {
		paths, err := Fig11(o)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== fig11: super-resolution visualisation ==\n  artefacts: %v\n\n", paths)
		return nil
	},
	"tab2":  func(o Options, w io.Writer) error { return printAll(w, Table2(o)) },
	"fig12": func(o Options, w io.Writer) error { return printAll(w, Fig12(o)) },
	"tab3":  func(o Options, w io.Writer) error { return printAll(w, Table3(o)) },
	"fig13": func(o Options, w io.Writer) error { a, b := Fig13(o); return printAll(w, a, b) },
	"fig14": func(o Options, w io.Writer) error { return printAll(w, Fig14(o)) },
	"fig15": func(o Options, w io.Writer) error { return printAll(w, Fig15(o)) },
	"fig16": func(o Options, w io.Writer) error { return printAll(w, Fig16(o)) },
	"fig17": func(o Options, w io.Writer) error { return printAll(w, Fig17(o)) },
	"fig18": func(o Options, w io.Writer) error { return printAll(w, Fig18(o)) },
	"lat":   func(o Options, w io.Writer) error { return printAll(w, Latency(o)) },
	"cpu":   func(o Options, w io.Writer) error { return printAll(w, CPUEnergy(o)) },
	"calibrate": func(o Options, w io.Writer) error {
		_, t := CalibrateQuality(o)
		return printAll(w, t)
	},
	"abr-xlayer": func(o Options, w io.Writer) error {
		res, t := ABRMatrix(o)
		if o.OutDir != "" {
			if err := res.WriteJSON(filepath.Join(o.OutDir, "abr_matrix.json")); err != nil {
				return err
			}
		}
		return printAll(w, t)
	},
	"abl-code":   func(o Options, w io.Writer) error { return printAll(w, AblationCodeResolution(o)) },
	"abl-warp":   func(o Options, w io.Writer) error { return printAll(w, AblationWarpResolution(o)) },
	"abl-pred":   func(o Options, w io.Writer) error { return printAll(w, AblationPredictor(o)) },
	"abl-fec":    func(o Options, w io.Writer) error { return printAll(w, AblationFECScheme(o)) },
	"abl-flow":   func(o Options, w io.Writer) error { return printAll(w, AblationSharedFlow(o)) },
	"abl-buffer": func(o Options, w io.Writer) error { return printAll(w, AblationBufferSize(o)) },
}

// IDs returns every registered experiment ID in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID.
func Run(id string, opts Options, w io.Writer) error {
	r, ok := Registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	start := time.Now()
	err := r(opts, w)
	cExperiments.Add(1)
	telemetry.Emit("experiment", telemetry.StageNone, id,
		float64(time.Since(start))/1e6)
	return err
}

// RunAll executes every experiment in ID order.
func RunAll(opts Options, w io.Writer) error {
	for _, id := range IDs() {
		if err := Run(id, opts, w); err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
	}
	return nil
}
