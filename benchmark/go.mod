module ptsbench/benchmark

go 1.21

require ptsbench v0.0.0

replace ptsbench => ../
