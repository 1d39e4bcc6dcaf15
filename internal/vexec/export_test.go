package vexec

// Discard opens the pipeline and pulls it to exhaustion without
// materializing the output. The steady-state allocation gate uses it so
// the measurement sees only the pipeline's own allocations, not the
// result slice growing.
func Discard(root Op, batchSize int) error {
	if err := root.Open(); err != nil {
		root.Close()
		return err
	}
	b := getBatch(batchSize)
	defer putBatch(b)
	for {
		ok, err := root.Next(b)
		if err != nil {
			root.Close()
			return err
		}
		if !ok {
			break
		}
	}
	return root.Close()
}
