// Fixture for the ctxcomm analyzer's scoping: this package path does
// not end in "service", so nothing here is flagged — application
// drivers, cmds and the solver backends may start from a root context.
package outofscope

import (
	"context"

	"repro/internal/comm"
)

func driverEntry(w *comm.World) error {
	return w.RunContext(context.Background(), func(c *comm.Comm) {
		c.Barrier()
	})
}
