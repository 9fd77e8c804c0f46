module github.com/celltrace/pdt/bench

go 1.22

require github.com/celltrace/pdt v0.0.0

replace github.com/celltrace/pdt => ../
