// Package abr implements the adaptive-bitrate controllers of the
// reproduction: the classical baselines (rate-based, buffer-based, BOLA,
// robustMPC), the paper's enhancement-aware §6 algorithm, and the BBA-2
// family with its two cross-layer variants.
//
// The §6 controller (EnhancementAware) is a model-based planner, not a
// learned policy: per chunk it takes the QoE argmax over offline-calibrated
// quality maps (PSNR after recovery and super-resolution per rung and loss
// rate) and device enhancement times, fed by a throughput estimate.
//
// Every controller implements Algorithm: given a State snapshot it returns
// the ladder index (into video.Resolutions) for the next chunk. State
// carries the application-level view — buffer seconds, throughput history
// in bits per second, per-rung chunk sizes in bytes — and, in
// packet-accurate simulations, an optional CrossLayer view aggregated from
// the transport qlog event stream (internal/transport/qlog, taxonomy in
// TRANSPORT_EVENTS.md): recent wire-loss rate, smoothed RTT and its
// gradient, inflight bytes and send-backlog high-water marks, and how much
// loss the client's recovery machinery can mask. Controllers that predate
// the cross-layer view simply ignore it.
//
// Algorithms are stateful across a session (hysteresis, EWMA predictors,
// BBA-2's startup phase); call Reset before reusing one for a new session.
// NewByName constructs any controller from its wire name, which is what
// nervesim's -abr flag and the experiment matrix use.
package abr
