(** Architecture-grid pricing: {!Mach.Sim.run_grid} lifted into the
    engine layer, with the trace served through the {!Tcache} /
    {!Tstore} tiers.

    Bit-identical to {!Mach.Sim.run_grid}: the trace is fetched once and
    every config's machine model is folded over it in the calling
    process. *)

(** Price [p] against [configs].  The trace comes from [tcache] when
    given (consulting its durable {!Tstore} tier and writing fresh
    generations through), else from a direct {!Mach.Mtrace.generate}.
    [jobs] is ignored — configs are always folded in the caller — and
    is kept only so existing callers (the benchmark harness passes it)
    still compile.
    @raise Mira.Interp.Trap on runtime errors
    @raise Mira.Interp.Out_of_fuel when the step budget is exhausted *)
val run_grid :
  ?jobs:int ->
  ?fuel:int ->
  ?tcache:Tcache.t ->
  configs:Mach.Config.t array ->
  Mira.Ir.program ->
  Mach.Sim.result array
