module stindex/bench

go 1.22

require stindex v0.0.0

replace stindex => ../
