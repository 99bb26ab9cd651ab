// shbench is a module of its own so that the simulator's module neither
// builds nor tests it; the import path keeps the smartharvest/ prefix, which
// is what lets it import smartharvest/internal/... through the replace.
module smartharvest/benchmark

go 1.22

require smartharvest v0.0.0

replace smartharvest => ../
