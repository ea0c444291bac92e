//go:build race

package split

func init() { raceDetector = true }
