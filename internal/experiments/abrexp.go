package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"nerve/internal/abr"
	"nerve/internal/sim"
	"nerve/internal/trace"
)

// abrMatrixAlgorithms is the controller set of the cross-layer ABR matrix:
// every controller abr.NewByName builds — the classical baselines plus the
// BBA-2 family with its two cross-layer variants (EXPERIMENTS.md
// "Cross-layer ABR").
func abrMatrixAlgorithms() []string { return abr.Names() }

// abrMatrixLossScales are the loss axis points: as-recorded traces and the
// paper's lossy setting (Figs. 15/16 use 6×).
var abrMatrixLossScales = []float64{1, 6}

// ABRCell is one (algorithm, network, loss) point of the matrix, averaged
// over seeds.
type ABRCell struct {
	// ABR is the controller's wire name (abr.NewByName).
	ABR string `json:"abr"`
	// Network is the trace family ("3G", "4G", "5G", "WiFi").
	Network string `json:"network"`
	// LossScale multiplies the trace's recorded loss rates.
	LossScale float64 `json:"loss_scale"`
	// QoE is the mean session QoE (bitrate-equivalent Mbps units).
	QoE float64 `json:"qoe"`
	// MeanStallSec is the mean rebuffer time per chunk in seconds.
	MeanStallSec float64 `json:"mean_stall_sec"`
	// MeanRateIndex is the mean chosen ladder rung (0 = 240p).
	MeanRateIndex float64 `json:"mean_rate_index"`
}

// ABRMatrixResult is the full matrix in the standard results/ JSON shape.
type ABRMatrixResult struct {
	ID           string    `json:"id"`
	Title        string    `json:"title"`
	Scheme       string    `json:"scheme"`
	Seed         int64     `json:"seed"`
	SeedsPerCell int       `json:"seeds_per_cell"`
	Chunks       int       `json:"chunks"`
	Cells        []ABRCell `json:"cells"`
}

// WriteJSON writes the matrix to path, creating parent directories.
func (r *ABRMatrixResult) WriteJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Cell returns the matrix point for (abrName, network, lossScale), or nil.
func (r *ABRMatrixResult) Cell(abrName, network string, lossScale float64) *ABRCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.ABR == abrName && c.Network == network && c.LossScale == lossScale {
			return c
		}
	}
	return nil
}

// ABRMatrix runs the ABR × trace × loss matrix over the packet-accurate
// transport with the full recovery+SR client and planned FEC — the setting
// where the cross-layer signals exist (the qlog stream needs a transport)
// and matter (FEC redundancy converts wire loss into download-time
// pressure that a buffer-only controller misreads as congestion). Returns
// the JSON-shaped result and its rendered table of QoE per cell.
func ABRMatrix(opts Options) (*ABRMatrixResult, *Table) {
	nets := trace.NetworkTypes()
	seeds := int64(3)
	if opts.Quick {
		nets = []trace.NetworkType{trace.Net4G, trace.NetWiFi}
		seeds = 1
	}
	chunks := chunksFor(opts)

	res := &ABRMatrixResult{
		ID:           "abr-xlayer",
		Title:        "Cross-layer ABR matrix (packet-accurate, recovery client, planned FEC)",
		Scheme:       "full+fec",
		Seed:         opts.Seed,
		SeedsPerCell: int(seeds),
		Chunks:       chunks,
	}

	t := &Table{
		ID:     "abr-xlayer",
		Title:  "QoE by ABR × network × loss (packet-accurate, recovery client)",
		Header: []string{"abr"},
		Notes: []string{
			"shape: under 6× loss, bba2-loss holds rungs that plain bba2 surrenders to FEC-inflated download times",
			"cross-layer view: internal/transport/qlog aggregated per chunk (TRANSPORT_EVENTS.md)",
		},
	}
	for _, nt := range nets {
		for _, ls := range abrMatrixLossScales {
			t.Header = append(t.Header, fmt.Sprintf("%s@%gx", nt, ls))
		}
	}

	for _, name := range abrMatrixAlgorithms() {
		row := []string{name}
		for _, nt := range nets {
			for _, ls := range abrMatrixLossScales {
				var qoe, stall, rate float64
				for sd := int64(0); sd < seeds; sd++ {
					tr := trace.Generate(nt, 240, opts.Seed+500+sd).Downscale(1.5e6, 0.3e6, 5e6)
					set := sim.NewSchemeSet()
					set.UseFEC = true
					sc := set.Full()
					sc.UseFEC = true
					sc.ABR = abr.NewByName(name)
					r := sim.Run(sim.Config{
						Trace: tr, Seed: opts.Seed + 600 + sd,
						LossScale: ls, Chunks: chunks, PacketAccurate: true,
					}, sc)
					qoe += r.QoE
					stall += r.MeanStall
					for _, p := range r.Series {
						rate += float64(p.RateIndex)
					}
				}
				n := float64(seeds)
				cell := ABRCell{
					ABR: name, Network: nt.String(), LossScale: ls,
					QoE:           qoe / n,
					MeanStallSec:  stall / n,
					MeanRateIndex: rate / (n * float64(chunks)),
				}
				res.Cells = append(res.Cells, cell)
				row = append(row, fmt.Sprintf("%.3f", cell.QoE))
			}
		}
		t.AddRow(row...)
	}
	return res, t
}
