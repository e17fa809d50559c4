package tcpip

import "testing"

// setPoisonSpares turns on poisonSpares for the rest of the test.
func setPoisonSpares(t testing.TB) {
	poisonSpares = true
	t.Cleanup(func() { poisonSpares = false })
}
