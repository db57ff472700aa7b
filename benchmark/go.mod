module revnf/benchmark

go 1.22

require revnf v0.0.0

replace revnf => ../
