package lint

import "strconv"

// SockIO confines real-socket I/O to the module's declared wall
// boundaries. Importing "net" puts a package on the wall-clock,
// real-kernel side of the simulation line: its latencies are machine
// timings, its failures are real syscall failures, and none of it
// replays from a seed. Only the designated boundary packages — the
// observability endpoint (internal/obs), the TCP data plane
// (internal/netsvc) and the binaries that drive them — may cross that
// line, and each import site must carry a documented //lint:allow
// sockio suppression so new sockets are a reviewed decision, not an
// accident. The observability boundary speaks HTTP through net/http;
// the data plane frames its own protocol over net.
var SockIO = &Analyzer{
	Name: "sockio",
	Doc:  "forbid \"net\"/\"net/http\" imports outside documented wall boundaries; real sockets only in obs (net/http) and netsvc (net) and their binaries",
	Run:  runSockIO,
}

func runSockIO(pass *Pass) {
	pkg := pass.Pkg
	if !pathIsUnder(pkg.Path, "memsnap/internal") && !pathIsUnder(pkg.Path, "memsnap/cmd") {
		return
	}
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		for _, imp := range f.AST.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "net" || path == "net/http" {
				pass.Reportf(imp.Pos(),
					"import of %q: real-socket I/O belongs only to documented wall boundaries (obs over net/http, netsvc over net, their binaries); annotate intentional boundaries with //lint:allow sockio (design rule: simulation stays off the network)",
					path)
			}
		}
	}
}
