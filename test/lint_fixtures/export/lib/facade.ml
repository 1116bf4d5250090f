module S = Shapes

let dead_end x = Shapes.dead x + Shapes.Nested.inner_dead x
