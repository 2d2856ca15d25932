package workload

import (
	"fmt"

	"twopage/internal/trace"
)

// nBuiltin counts the compiled-in program specs; entries past it are
// runtime registrations and the only ones Unregister may remove.
var nBuiltin = len(specs)

// RegisterFile registers a trace (see trace.OpenFile) as a workload
// named name, so it plugs into the same experiment machinery as the
// twelve modelled programs. Every New call returns an independent
// cursor over the shared File, truncated to refs when refs > 0, so
// experiments running the workload in parallel decode concurrently
// without rereading the file. The name must not be empty or collide
// with a registered workload. The caller keeps ownership of f and must
// not Close it while the workload is in use.
func RegisterFile(name string, f *trace.File) error {
	if name == "" {
		return fmt.Errorf("workload: empty source name")
	}
	if _, err := Get(name); err == nil {
		return fmt.Errorf("workload: %q already registered", name)
	}
	specs = append(specs, Spec{
		Name:        name,
		Description: fmt.Sprintf("v2 trace file (%d refs, %.2f bytes/ref)", f.Refs(), f.BytesPerRef()),
		DefaultRefs: f.Refs(),
		File:        f,
		New: func(refs uint64) trace.Reader {
			if refs > 0 {
				return trace.NewLimit(f.Reader(), refs)
			}
			return f.Reader()
		},
	})
	return nil
}

// Unregister removes a trace registered with RegisterFile, reporting
// whether it was present. The twelve modelled programs cannot be
// removed.
func Unregister(name string) bool {
	for i := nBuiltin; i < len(specs); i++ {
		if specs[i].Name == name {
			specs = append(specs[:i], specs[i+1:]...)
			return true
		}
	}
	return false
}
