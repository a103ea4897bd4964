// Fixture for the ctxcomm analyzer's service-layer coverage. The
// package's path ends in "service": request handlers here must thread
// the HTTP request's context into Session.Solve — minting a root
// context detaches the solve from the client's cancellation (a dropped
// connection or server drain could no longer unblock the ranks).
package service

import (
	"context"

	"repro/internal/comm"
	"repro/internal/core"
)

func handlerMintsRoot(s *core.Session, x []float64) error {
	_, err := s.Solve(context.Background(), x) // want "context\\.Background\\(\\) passed to core\\.Solve"
	return err
}

func handlerMintsTODO(s *core.Session, x []float64) error {
	_, err := s.Solve(context.TODO(), x) // want "context\\.TODO\\(\\) passed to core\\.Solve"
	return err
}

func runContextTODO(w *comm.World) error {
	return w.RunContext((context.TODO()), func(c *comm.Comm) {}) // want "context\\.TODO\\(\\) passed to comm\\.RunContext"
}

// threadedRequestContext is the supported idiom: the handler's request
// context flows into the solve unchanged (or derived, never re-minted).
func threadedRequestContext(ctx context.Context, s *core.Session, x []float64) error {
	_, err := s.Solve(ctx, x)
	return err
}

func derivedRequestContext(ctx context.Context, s *core.Session, x []float64) error {
	sub, cancel := context.WithCancel(ctx)
	defer cancel()
	_, err := s.Solve(sub, x)
	return err
}

// rootOutsideScopedAPI: a root context is only a finding when it crosses
// into the comm/core layer; building one for unrelated plumbing is fine.
func rootOutsideScopedAPI() context.Context {
	return context.Background()
}

// suppressed shows the per-site escape hatch for the rare legitimate
// root context (e.g. a warmup solve that must outlive any request).
func suppressed(s *core.Session, x []float64) error {
	//lisi:ignore ctxcomm pool warmup solve, deliberately detached from any request
	_, err := s.Solve(context.Background(), x)
	return err
}
