//go:build !race

package k8s

const raceEnabled = false
