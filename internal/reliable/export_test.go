package reliable

import (
	"overlaymatch/internal/rng"
	"overlaymatch/internal/simnet"
)

// UniformLoss returns the uniformLoss test policy: every send dropped
// independently with probability p, coins drawn from src.
func UniformLoss(p float64, src *rng.Source) simnet.LinkPolicy {
	return uniformLoss{p: p, src: src}
}
