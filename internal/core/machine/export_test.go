package machine

// RoundRewind is the round-id threshold at which the machine rewinds its
// counter, exposed to the package's external tests.
const RoundRewind = roundRewind

// WithRound starts a machine's round counter at r, as if r ids had been
// handed out, so that a test can run a machine across the rewind.
func WithRound(r uint32) Option { return func(m *Machine) { m.round = r } }
