// Package leaf is the bottom of the synthetic call DAG: declarations only,
// no module-internal calls.
package leaf

type Table struct {
	rows []int
}

func (t *Table) Append(v int) { t.rows = append(t.rows, v) }

func (t *Table) Len() int { return len(t.rows) }

func Combine(a, b int) int { return a + b }
