// Command app is the fixture module's one binary.
package main

import (
	"fmt"

	"fixture/internal/note"
	"fixture/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	var src lib.Source = &lib.Ticker{}
	fmt.Println(s.Area(), src.Next(), lib.Name("sq"), note.Documented(), note.Undocumented())
}
