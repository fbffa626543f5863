(* Architecture-grid pricing in the engine layer, where the trace tiers
   live (lib/machine cannot depend on lib/engine): one trace fetch —
   through Tcache (and its Tstore tier) when one is attached, a plain
   generation otherwise — then every config folded over it in the
   calling process by Replay.run_grid, which re-raises a non-Finished
   trace's engine exception (Trap / Out_of_fuel) exactly like
   Sim.run_grid.

   The folds are deliberately not forked across Pool workers: a fork
   costs more the larger the caller's heap, and at the heaps grid
   callers run with it measures no faster than folding here (DESIGN.md
   "Grid replay"). *)

module Mtrace = Mach.Mtrace
module Sim = Mach.Sim

let runs = Obs.Metrics.counter "grid.runs"

let run_grid ?jobs:(_ : int option) ?(fuel = Sim.default_fuel) ?tcache
    ~(configs : Mach.Config.t array) (p : Mira.Ir.program) :
    Sim.result array =
  Obs.Metrics.incr runs;
  Obs.span_with ~cat:"grid" "grid.run"
    ~end_args:(fun _ -> [ ("configs", Obs.Trace.Int (Array.length configs)) ])
    (fun () ->
      let tr =
        match tcache with
        | None -> Mtrace.generate_program ~fuel p
        | Some tc ->
          Tcache.find_or_generate tc ~ir_digest:(Pctrie.digest p) ~fuel
            (fun () -> Mtrace.generate_program ~fuel p)
      in
      Array.map Sim.of_flatsim (Mach.Replay.run_grid ~configs tr))
