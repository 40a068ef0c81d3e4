module islands/bench

go 1.22

require islands v0.0.0

replace islands => ../
