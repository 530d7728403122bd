package arch

import "repro/internal/config"

// NewThresholdsOnly builds kind's scheme from p under the kind's Table 1
// voltage thresholds alone, without Kind.Params' resets: the machine a
// reset must not change.
func NewThresholdsOnly(kind Kind, p config.Params) Scheme {
	return build(kind, kind.thresholds(p))
}
