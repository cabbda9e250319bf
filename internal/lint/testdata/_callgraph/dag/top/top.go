// Package top is the root of the synthetic call DAG: reaches leaf's Append
// only transitively, through mid.
package top

import (
	"fixture/dag/leaf"
	"fixture/dag/mid"
)

func Build(n int) int {
	t := &leaf.Table{}
	mid.Fill(t, n)
	return t.Len()
}
