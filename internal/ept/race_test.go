//go:build race

package ept

func init() { raceEnabled = true }
