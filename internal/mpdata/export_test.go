package mpdata

// VectorAvailable reports whether this build and CPU have the AVX2 bodies.
func VectorAvailable() bool { return vectorAvailable }

// WithBody runs fn with every program built inside it binding its fused
// kernels to the vector (true) or scalar (false) body.
func WithBody(vector bool, fn func()) {
	defer func(was bool) { useVector = was }(useVector)
	useVector = vector
	fn()
}
