package main

import (
	"encoding/binary"
	"fmt"
)

// endToEnd lists the metrics an untraced run reports, with their units.
// BENCHMARK.json at the repository root names the same set.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_frame", "ms"},
	{"peak_rss_mb", "MB"},
	{"fps", "1/s"},
	{"frame_ms_p50", "ms"},
	{"psnr_db", "dB"},
	{"hit_ms_p50", "ms"},
}

// perLayer lists the metrics a traced run reports. A workload that
// bypasses a layer reports its metrics as 0. The first two are the tails
// of the end-to-end frame_ms and hit_ms, taken from the traced run's
// untraced session (play) or its walk (origin-live): on a shared 2-core
// machine their run-to-run spread is wider than an end-to-end bound may
// be (README.md).
var perLayer = []struct{ name, unit string }{
	{"frame_ms_p99", "ms"},
	{"hit_ms_p99", "ms"},
	{"core.next_ms_p50", "ms"},
	{"core.overlap_ratio", "ratio"},
	{"core.float_frames", "count"},
	{"core.frames_sr", "count"},
	{"core.frames_partial", "count"},
	{"core.frames_recovered", "count"},
	{"core.frames_reused", "count"},
	{"codec.decode_ms_p50", "ms"},
	{"codec.decode_ms_p99", "ms"},
	{"codec.decode_iframe_ms_p50", "ms"},
	{"codec.decode_partial_ms_p50", "ms"},
	{"codec.unmarshal_us_p50", "us"},
	{"codec.encode_ms_p50", "ms"},
	{"video.render_ms_p50", "ms"},
	{"edgecode.extract_ms_p50", "ms"},
	{"edgecode.decompress_us_p50", "us"},
	{"recovery.lost_ms_p50", "ms"},
	{"recovery.lost_ms_p99", "ms"},
	{"recovery.partial_ms_p50", "ms"},
	{"recovery.partial_ms_p99", "ms"},
	{"recovery.calls", "count"},
	{"sr.fixed_ms_p50", "ms"},
	{"sr.fixed_ms_p99", "ms"},
	{"sr.float_ms_p50", "ms"},
	{"fec.protect_ms_p50", "ms"},
	{"fec.recover_ms_p50", "ms"},
	{"fec.repaired_ratio", "ratio"},
	{"fec.overhead_ratio", "ratio"},
	{"httpstream.fetch_ms_p50", "ms"},
	{"httpstream.miss_ms_p50", "ms"},
	{"httpstream.encodes", "count"},
	{"httpstream.cache_hit_ratio", "ratio"},
	{"httpstream.bytes_per_s", "B/s"},
	{"viewer.late_ms_p99", "ms"},
	{"vmath.plane_allocs_per_frame", "count"},
	{"vmath.pool_hit_ratio", "ratio"},
	{"go.gc_pause_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.alloc_bytes_per_frame", "B"},
	{"proc.user_s", "s"},
	{"proc.sys_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range endToEnd {
		u[m.name] = m.unit
	}
	for _, m := range perLayer {
		u[m.name] = m.unit
	}
	return u
}()

// set records a metric under its declared unit.
func (m metrics) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: metric %q is not declared", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// zeroLayers starts a traced run's metrics with every per-layer metric at
// 0, so layers a workload bypasses still appear.
func zeroLayers(m metrics) {
	for _, l := range perLayer {
		m.set(l.name, 0)
	}
}

// splitRecords splits an httpstream payload of u32-length-prefixed records.
func splitRecords(b []byte) ([][]byte, error) {
	var out [][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("truncated length prefix")
		}
		n := binary.BigEndian.Uint32(b)
		b = b[4:]
		if uint64(len(b)) < uint64(n) {
			return nil, fmt.Errorf("truncated record (%d bytes)", n)
		}
		out = append(out, b[:n])
		b = b[n:]
	}
	return out, nil
}
