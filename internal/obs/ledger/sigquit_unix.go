//go:build unix

package ledger

import (
	"os"
	"os/signal"
	"syscall"
)

// notifySigquit arms the operator post-mortem trigger: SIGQUIT makes the
// session's flight recorder dump bundles for every retained run into the
// ledger, and the process keeps running — the operator asked for evidence,
// not an exit. (Go's default SIGQUIT stack dump is replaced for this
// process; SIGABRT still produces one.)
func notifySigquit(c *CLI) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			c.printf("ledger: SIGQUIT received, dumping flight bundles\n")
			c.rec.DumpAll("sigquit")
		}
	}()
}
