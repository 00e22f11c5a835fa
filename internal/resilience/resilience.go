// Package resilience is heteromixd's failure-handling toolkit: a
// consecutive-failure circuit breaker, seedable chaos-injection
// middlewares (request-level and replica-level) and a panic-recovery
// middleware.
//
// The package depends only on the standard library and exposes hooks
// (OnStateChange, onPanic, injectable clocks) instead of importing the
// server's metrics registry, so it slots under any HTTP stack and stays
// trivially testable: every probabilistic or timed behavior can be
// driven deterministically.
package resilience
