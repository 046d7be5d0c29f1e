package obs

import (
	"os"
	"runtime/pprof"
)

// StartCPUProfile starts writing a host CPU profile of the whole process
// to path (the -cpuprofile flag of the commands; read it with go tool
// pprof). The returned stop ends the profile and closes the file; a
// command calls it on every exit path, or the file is left truncated.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
