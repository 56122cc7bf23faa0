module simaibench/benchmark

go 1.24

require simaibench v0.0.0

replace simaibench => ../
