let solo = 1
