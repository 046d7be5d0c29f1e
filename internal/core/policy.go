package core

import "fmt"

// PolicyConfigError is the typed error returned for an invalid protocol
// policy configuration (errors.As-matchable).
type PolicyConfigError struct {
	Policy string
	Reason string
}

func (e *PolicyConfigError) Error() string {
	return fmt.Sprintf("core: invalid policy configuration (Policy = %q): %s", e.Policy, e.Reason)
}
