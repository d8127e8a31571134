package agilla

import "github.com/agilla-go/agilla/internal/core"

// DeploymentForTest exposes the internal deployment so package tests can
// reach the radio medium and per-node state without widening the public
// API.
func DeploymentForTest(nw *Network) *core.Deployment { return nw.d }

// SubscriptionsForTest reports how many Events and Watch subscriptions
// the network holds.
func SubscriptionsForTest(nw *Network) int {
	nw.ev.mu.Lock()
	defer nw.ev.mu.Unlock()
	return len(nw.ev.subs)
}
