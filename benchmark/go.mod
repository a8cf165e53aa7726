// The benchmark is its own module so that the repository's tier-1
// `go build ./... && go test ./...` never builds or runs it; it imports the
// engine's internal packages through the replace below (allowed because its
// import path sits under resultdb/).
module resultdb/benchmark

go 1.22

require resultdb v0.0.0

replace resultdb => ../
