package hypervisor

// Accessors that only this package's tests read.

// VMs returns the registered VMs.
func (m *Machine) VMs() []*VM { return m.vms }

// LogicalGroupCores returns g's core count including in-flight moves; this
// is what a caller that just issued a resize should reason about.
func (m *Machine) LogicalGroupCores(g GroupID) int { return m.logical[g] }
