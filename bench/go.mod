module lorm/bench

go 1.22

require lorm v0.0.0

replace lorm => ../
