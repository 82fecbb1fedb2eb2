package abr

// NewByName constructs an algorithm from its wire name — the Name() string
// each controller reports, which is also what nervesim's -abr flag and the
// experiment matrix accept. Returns nil for an unknown name. The
// enhancement-aware controller is absent here because it needs a
// calibrated EnhancementModel; construct it directly.
func NewByName(name string) Algorithm {
	switch name {
	case "rate-based", "rate":
		return NewRateBased()
	case "buffer-based", "buffer":
		return NewBufferBased()
	case "bola":
		return NewBOLA()
	case "robust-mpc", "mpc":
		return NewMPC()
	case "bba2":
		return NewBBA2()
	case "bba2-loss":
		return NewBBA2Loss()
	case "bba2-rtt":
		return NewBBA2RTT()
	}
	return nil
}

// Names lists the wire names NewByName accepts, canonical form first.
func Names() []string {
	return []string{
		"rate-based", "buffer-based", "bola", "robust-mpc", "bba2",
		"bba2-loss", "bba2-rtt",
	}
}
