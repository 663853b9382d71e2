package harness

import (
	"os/exec"
	"syscall"
)

// KillWithParent makes the kernel kill cmd if this process dies first,
// so an aborted benchmark never leaves a daemon or child running.
func KillWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
