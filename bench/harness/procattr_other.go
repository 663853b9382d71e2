//go:build !linux

package harness

import "os/exec"

// KillWithParent is a no-op where the kernel offers no parent-death
// signal; the harness still stops its children on every normal path.
func KillWithParent(cmd *exec.Cmd) {}
