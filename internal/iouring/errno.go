package iouring

// CQE result codes. Completions carry either a non-negative byte count or
// a negated Linux errno, exactly as the kernel posts them; the completion
// paths in the tree (the DMQ and rados targets in core) share these
// constants instead of scattering magic literals.
const (
	// ResEIO (-EIO) reports an I/O failure below the submitting layer.
	ResEIO int32 = -5
	// ResEINVAL (-EINVAL) reports a request outside the device's range.
	ResEINVAL int32 = -22
)
