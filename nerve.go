// Package nerve is the public API of the NERVE reproduction: real-time
// neural video recovery and enhancement for mobile streaming (He et al.,
// CoNEXT 2024), reimplemented from scratch in Go.
//
// The package re-exports the user-facing pieces of the internal packages:
//
//   - video source and ladder (Frame, Resolution, Generator, Categories)
//   - the media server and client engine (Server, Client — Fig. 5)
//   - the recovery model and super-resolver as standalone components
//   - ABR algorithms including the §6 enhancement-aware one
//   - network traces, the streaming simulator and the experiment harness
//
// See the runnable programs under examples/ for end-to-end usage, and
// cmd/nervebench to regenerate every table and figure of the paper.
package nerve

import (
	"io"

	"nerve/internal/abr"
	"nerve/internal/core"
	"nerve/internal/device"
	"nerve/internal/edgecode"
	"nerve/internal/experiments"
	"nerve/internal/fec"
	"nerve/internal/metrics"
	"nerve/internal/qoe"
	"nerve/internal/recovery"
	"nerve/internal/sim"
	"nerve/internal/sr"
	"nerve/internal/trace"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// ---- Video substrate ----

// Plane is a dense single-channel (luma) image.
type Plane = vmath.Plane

// NewPlane allocates a zeroed W×H plane.
func NewPlane(w, h int) *Plane { return vmath.NewPlane(w, h) }

// Resolution is a bitrate-ladder rung (240p … 1080p).
type Resolution = video.Resolution

// Ladder rungs.
const (
	R240  = video.R240
	R360  = video.R360
	R480  = video.R480
	R720  = video.R720
	R1080 = video.R1080
)

// Resolutions returns the full ladder.
func Resolutions() []Resolution { return video.Resolutions() }

// Category describes a synthetic content category; Generator renders its
// deterministic video.
type (
	Category  = video.Category
	Generator = video.Generator
)

// Categories returns the ten content categories of the synthetic corpus.
func Categories() []Category { return video.Categories() }

// NewGenerator builds a deterministic scene generator.
func NewGenerator(cat Category, seed int64) *Generator { return video.NewGenerator(cat, seed) }

// PSNR and SSIM are the video quality metrics used throughout.
func PSNR(ref, dist *Plane) float64 { return metrics.PSNR(ref, dist) }
func SSIM(ref, dist *Plane) float64 { return metrics.SSIM(ref, dist) }

// ---- System engine (Fig. 5) ----

// Server encodes frames and extracts binary point codes; Client is the
// mobile engine that decodes, recovers and super-resolves on byte planes.
type (
	Server       = core.Server
	ServerConfig = core.ServerConfig
	ServerFrame  = core.ServerFrame
	Client       = core.Client
	ClientConfig = core.ClientConfig
	ClientInput  = core.Input
	FrameResult  = core.FrameResult
)

// NewServer builds a media server.
func NewServer(cfg ServerConfig) (*Server, error) { return core.NewServer(cfg) }

// NewClient builds a client engine.
func NewClient(cfg ClientConfig) (*Client, error) { return core.NewClient(cfg) }

// ---- Standalone components ----

// Recoverer is the hint-assisted video recovery model (§4).
type (
	Recoverer       = recovery.Recoverer
	RecoveryConfig  = recovery.Config
	RecoveryInput   = recovery.Input
	BinaryPointCode = edgecode.Code
	CodeExtractor   = edgecode.Extractor
)

// NewRecoverer builds a recovery model.
func NewRecoverer(cfg RecoveryConfig) *Recoverer { return recovery.New(cfg) }

// NewCodeExtractor builds a binary point code extractor (zero dims select
// the paper's 1 KB 64×128 geometry).
func NewCodeExtractor(w, h int) *CodeExtractor { return edgecode.NewExtractor(w, h) }

// DecompressCode decodes a code packed by BinaryPointCode.Compress, the
// side channel's wire format.
func DecompressCode(data []byte) (*BinaryPointCode, error) { return edgecode.Decompress(data) }

// SuperResolver is the multi-resolution real-time SR model (§5).
type (
	SuperResolver = sr.SuperResolver
	SRConfig      = sr.Config
)

// NewSuperResolver builds a super-resolver.
func NewSuperResolver(cfg SRConfig) *SuperResolver { return sr.New(cfg) }

// DeviceModel is the mobile cost model (latency, CPU, energy).
type DeviceModel = device.Model

// IPhone12 returns the calibrated iPhone 12 model from the paper.
func IPhone12() *DeviceModel { return device.IPhone12() }

// ---- ABR and QoE ----

type (
	// ABRAlgorithm selects the next chunk's ladder rung.
	ABRAlgorithm = abr.Algorithm
	// ABRState is the input to an ABR decision.
	ABRState = abr.State
	// EnhancementAwareABR is the §6 contribution.
	EnhancementAwareABR = abr.EnhancementAware
	// QoEParams configures the QoE metric; QoESession accumulates chunks.
	QoEParams  = qoe.Params
	QoESession = qoe.Session
)

// NewMPC returns the robustMPC baseline; NewRateBased and NewBufferBased
// the classical ones.
func NewMPC() ABRAlgorithm         { return abr.NewMPC() }
func NewRateBased() ABRAlgorithm   { return abr.NewRateBased() }
func NewBufferBased() ABRAlgorithm { return abr.NewBufferBased() }
func NewBOLA() ABRAlgorithm        { return abr.NewBOLA() }

// NewBBA2 returns BBA-2 (Huang et al., SIGCOMM 2014); NewBBA2Loss and
// NewBBA2RTT its cross-layer variants driven by the transport qlog stream
// (TRANSPORT_EVENTS.md).
func NewBBA2() ABRAlgorithm     { return abr.NewBBA2() }
func NewBBA2Loss() ABRAlgorithm { return abr.NewBBA2Loss() }
func NewBBA2RTT() ABRAlgorithm  { return abr.NewBBA2RTT() }

// ABRByName constructs any controller from its wire name (nil if unknown);
// ABRNames lists the accepted names.
func ABRByName(name string) ABRAlgorithm { return abr.NewByName(name) }
func ABRNames() []string                 { return abr.Names() }

// ---- Network traces, FEC and simulation ----

type (
	// Trace is a network throughput/loss/RTT time series.
	Trace = trace.Trace
	// NetworkType selects 3G/4G/5G/WiFi.
	NetworkType = trace.NetworkType
	// FECPlanner maps predicted loss to FEC redundancy (§4).
	FECPlanner = fec.Planner
	// SimConfig, Scheme and SimResult drive the streaming simulator.
	SimConfig = sim.Config
	Scheme    = sim.Scheme
	SchemeSet = sim.SchemeSet
	SimResult = sim.Result
)

// Network types.
const (
	Net3G   = trace.Net3G
	Net4G   = trace.Net4G
	Net5G   = trace.Net5G
	NetWiFi = trace.NetWiFi
)

// GenerateTrace synthesises a network trace calibrated to the paper's
// Table 2 statistics.
func GenerateTrace(n NetworkType, durSeconds float64, seed int64) *Trace {
	return trace.Generate(n, durSeconds, seed)
}

// NewSchemeSet returns the evaluation scheme family (w/o RC, RC alone,
// NEMO, full system, …).
func NewSchemeSet() SchemeSet { return sim.NewSchemeSet() }

// Simulate runs one streaming session of a scheme over a trace.
func Simulate(cfg SimConfig, scheme Scheme) *SimResult { return sim.Run(cfg, scheme) }

// DefaultFECPlanner returns the calibrated loss→redundancy table.
func DefaultFECPlanner() *FECPlanner { return fec.DefaultPlanner() }

// ---- Experiments ----

// ExperimentOptions configures the reproduction harness.
type ExperimentOptions = experiments.Options

// ExperimentIDs lists every table/figure harness (DESIGN.md §3).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one table/figure, writing rendered results.
func RunExperiment(id string, opts ExperimentOptions, w io.Writer) error {
	return experiments.Run(id, opts, w)
}

// RunAllExperiments regenerates everything in ID order.
func RunAllExperiments(opts ExperimentOptions, w io.Writer) error {
	return experiments.RunAll(opts, w)
}

// ABRMatrixResult is the cross-layer ABR × trace × loss matrix in its
// results/ JSON shape.
type ABRMatrixResult = experiments.ABRMatrixResult

// RunABRMatrix runs the cross-layer ABR matrix (packet-accurate transport,
// recovery client, planned FEC), renders the QoE table to w and returns
// the JSON-shaped result for WriteJSON.
func RunABRMatrix(opts ExperimentOptions, w io.Writer) *ABRMatrixResult {
	res, t := experiments.ABRMatrix(opts)
	t.Fprint(w)
	return res
}
