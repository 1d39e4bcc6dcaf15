package mediator

import "sort"

// Available reports whether a registered wrapper is currently usable.
func (m *Mediator) Available(name string) bool {
	m.mu.RLock()
	_, registered := m.wrappers[name]
	m.mu.RUnlock()
	m.downMu.Lock()
	down := m.unavailable[name]
	m.downMu.Unlock()
	return registered && !down
}

// Unavailable lists the wrappers marked down, sorted.
func (m *Mediator) Unavailable() []string {
	m.downMu.Lock()
	defer m.downMu.Unlock()
	out := make([]string, 0, len(m.unavailable))
	for n := range m.unavailable {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
