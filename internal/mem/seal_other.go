//go:build !(linux || darwin)

package mem

// Seal is Freeze where the syscall package offers no Mprotect: the image
// stays frozen on the Go heap, which costs memory and never changes a
// result. See seal_mmap.go.
func (m *Memory) Seal() { m.Freeze() }
