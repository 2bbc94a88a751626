package sim

// ResultDigest exposes resultDigest to the external sim_test package.
var ResultDigest = resultDigest
