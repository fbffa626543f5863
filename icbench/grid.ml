(* Workload [grid]: architecture exploration, jobs 2.

   Every suite program, compiled at -O0 and at -Ofast, is priced on two
   disjoint seeded grids of machine configs derived from the three
   presets.  Cold phase: grid A through [Engine.Grid.run_grid] with a
   trace cache over a fresh trace store — each trace is generated,
   encoded, written and replayed.  Warm phase: the store is closed and
   reopened under an empty trace cache, and grid B is priced from disk
   (read, decode, replay) with no trace generation at all.  Trace
   generation, replay, the store and pooling over configs do the work
   here; passes, the trie and the flat simulator do almost none. *)

open Common
module Pass = Passes.Pass
module Config = Mach.Config
module Tstore = Engine.Tstore
module Tcache = Engine.Tcache
module Mtrace = Mach.Mtrace

let jobs = 2
let nominal_round_s = function Full -> 6.5 | Tiny -> 1.0
let fuel = Mach.Sim.default_fuel

let programs = function
  | Full -> Workloads.names
  | Tiny -> [ "crc32"; "qsort"; "sha_mix" ]

let grid_size = function Full -> 4 | Tiny -> 2

(* A derived config: a preset with its caches, issue width, mispredict
   penalty and memory latency scaled. *)
let derive rng i =
  let base = List.nth Config.all (Random.State.int rng 3) in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let scale_cache (c : Mach.Cache.config) =
    { c with Mach.Cache.size_bytes = c.Mach.Cache.size_bytes * pick [ 1; 2; 4 ] / 2 }
  in
  { base with
    Config.name = Printf.sprintf "%s~%d" base.Config.name i;
    issue_width = max 1 (base.Config.issue_width + pick [ -1; 0; 1 ]);
    mispredict_penalty = max 1 (base.Config.mispredict_penalty + pick [ -2; 0; 3 ]);
    l1 = scale_cache base.Config.l1;
    l2 = scale_cache base.Config.l2;
    mem_lat = base.Config.mem_lat * pick [ 3; 4; 6 ] / 4 }

(* grids A and B: [n] configs each, parameter-distinct across both *)
let grids scale seed =
  let rng = Random.State.make [| seed; 41 |] in
  let n = grid_size scale in
  let seen = Hashtbl.create 16 in
  let rec draw acc i =
    if List.length acc = 2 * n then List.rev acc
    else
      let c = derive rng i in
      let key = Config.digest { c with Config.name = "" } in
      if Hashtbl.mem seen key then draw acc (i + 1)
      else begin
        Hashtbl.replace seen key ();
        draw (c :: acc) (i + 1)
      end
  in
  let all = Array.of_list (draw [] 0) in
  (Array.sub all 0 n, Array.sub all n n)

type res = {
  progs : (string * Mira.Ir.program) list;
  grid_a : Config.t array;
  grid_b : Config.t array;
  cold : Mach.Sim.result array list;
  warm : Mach.Sim.result array list;
}

let result_digest ~cold ~warm =
  let b = Rd.create () in
  List.iter
    (Array.iter (fun (r : Mach.Sim.result) ->
         Rd.int b r.Mach.Sim.cycles;
         Array.iter (Rd.int b) r.Mach.Sim.counters))
    (cold @ warm);
  Rd.finish b

let variants scale ~compile ~apply =
  List.concat_map
    (fun n ->
      let p = compile n in
      [ (n ^ "@O0", p); (n ^ "@Ofast", apply Pass.ofast p) ])
    (programs scale)

let grid_fallbacks = Obs.Metrics.counter "grid.serial_fallbacks"

let store_health s = Tstore.(quarantined s + write_errors s + stale_locks_broken s)

let price_all tc ~configs progs ~lat_ms =
  List.map
    (fun (_, p) ->
      let a = now () in
      let r = Engine.Grid.run_grid ~jobs ~fuel ~tcache:tc ~configs p in
      lat_ms := ((now () -. a) *. 1000.0) :: !lat_ms;
      r)
    progs

let round scale seed =
  let t0 = now () in
  let store_dir = Filename.concat (fresh_dir "grid") "tstore" in
  let progs = variants scale ~compile ~apply:Pass.apply_sequence in
  let grid_a, grid_b = grids scale seed in
  let store = Tstore.open_dir store_dir in
  let setup_s = now () -. t0 in
  let fallbacks0 = Obs.Metrics.value grid_fallbacks in
  let lat_ms = ref [] in
  (* cold: every trace generated, written through to the store *)
  let t1 = now () in
  let cold = price_all (Tcache.create ~store ()) ~configs:grid_a progs ~lat_ms in
  let cold_s = now () -. t1 in
  let h_cold = store_health store in
  (* warm: the reopened store under an empty trace cache *)
  let t2 = now () in
  Tstore.close store;
  let store = Tstore.open_dir store_dir in
  let warm = price_all (Tcache.create ~store ()) ~configs:grid_b progs ~lat_ms in
  let warm_s = now () -. t2 in
  (* the warm phase must not generate a single trace *)
  let generated = Tstore.misses store in
  let health =
    h_cold + store_health store + generated
    + (Obs.Metrics.value grid_fallbacks - fallbacks0)
  in
  Tstore.close store;
  let n = List.length progs in
  let cold_ops = n * Array.length grid_a and warm_ops = n * Array.length grid_b in
  ( { setup_s; wall_s = cold_s +. warm_s; cold_s; cold_ops; warm_s; warm_ops;
      lat_ms = !lat_ms; digest = result_digest ~cold ~warm;
      health; pooled_s = cold_s +. warm_s },
    { progs; grid_a; grid_b; cold; warm } )

(* -O0 cycles over -Ofast cycles, for every program on every config *)
let code_speedup r =
  let rec pairs = function
    | o0 :: ofast :: rest ->
      Array.to_list
        (Array.map2
           (fun (a : Mach.Sim.result) (b : Mach.Sim.result) ->
             float_of_int a.Mach.Sim.cycles /. float_of_int b.Mach.Sim.cycles)
           o0 ofast)
      @ pairs rest
    | _ -> []
  in
  geomean (pairs r.cold @ pairs r.warm)

let report r =
  [ Printf.sprintf "grid: %d programs x (%d cold + %d warm) configs per round"
      (List.length r.progs) (Array.length r.grid_a) (Array.length r.grid_b) ]

(* The oracle: a seeded sample of cold and warm pricings re-run as full
   flat-engine simulations, which share nothing with trace generation,
   the store or replay. *)
let oracle scale seed res ~corrupt =
  let rng = Random.State.make [| seed; 53 |] in
  let k = match scale with Full -> 4 | Tiny -> 2 in
  let checks = ref 0 and bad = ref 0 in
  let sample phase grid i =
    let j = Random.State.int rng (List.length res.progs) in
    let c = Random.State.int rng (Array.length grid) in
    let got = (List.nth phase j).(c) in
    let claimed =
      if corrupt && i = 0 then got.Mach.Sim.cycles + 1 else got.Mach.Sim.cycles
    in
    let r =
      Mach.Sim.run ~engine:Mach.Sim.Flat ~config:grid.(c) ~fuel
        (snd (List.nth res.progs j))
    in
    incr checks;
    if r.Mach.Sim.cycles <> claimed || r.Mach.Sim.counters <> got.Mach.Sim.counters
    then incr bad
  in
  for i = 0 to k - 1 do
    sample res.cold res.grid_a i;
    sample res.warm res.grid_b (i + 1)
  done;
  (!checks, !bad)

(* ------------------------------------------------------------------ *)
(* the traced round: [Grid.run_grid] and the [Tcache]-over-[Tstore]
   tiering spelled out as the layer calls they make *)

let price tc store ~configs p =
  Span.with_op (Span.new_op ()) (fun () ->
      let d = Shadow.digest p in
      let tr =
        (* the trace cache's own memory tier; its durable tier is
           consulted here, in the order [Tcache] consults it *)
        Tcache.find_or_generate tc ~ir_digest:d ~fuel (fun () ->
            match Span.span "tstore.find" (fun () -> Tstore.find store ~ir_digest:d ~fuel) with
            | Some tr -> tr
            | None ->
              let dp = Shadow.decode p in
              let tr = Span.span "mtrace.gen" (fun () -> Mtrace.generate ~fuel dp) in
              Shadow.count ~by:(float_of_int tr.Mtrace.n) "mtrace.words";
              Span.span "tstore.add" (fun () -> Tstore.add store ~ir_digest:d ~fuel tr);
              tr)
      in
      (match tr.Mtrace.outcome with
       | Mtrace.Finished -> ()
       | Mtrace.Trapped m -> raise (Mira.Interp.Trap m)
       | Mtrace.Exhausted -> raise Mira.Interp.Out_of_fuel);
      let n = Array.length configs in
      Shadow.count ~by:(float_of_int (n * tr.Mtrace.n)) "replay.words";
      if n <= 1 then
        Array.map Mach.Sim.of_flatsim
          (Span.span "replay" (fun () -> Mach.Replay.run_grid ~configs tr))
      else begin
        Shadow.count ~by:(float_of_int n) "pool.tasks";
        let op = !Span.cur_op in
        let out =
          Span.span "pool" (fun () ->
              Engine.Pool.map ~jobs:(min jobs n)
                (fun i ->
                  Shadow.in_worker op (fun () ->
                      Span.span "replay" (fun () ->
                          Mach.Replay.run ~config:configs.(i) tr)))
                (Array.init n Fun.id))
        in
        Array.mapi
          (fun i o ->
            match Shadow.adopt o with
            | Some r -> Mach.Sim.of_flatsim r
            | None ->
              Mach.Sim.of_flatsim
                (Span.span "replay" (fun () -> Mach.Replay.run ~config:configs.(i) tr)))
          out
      end)

let traced scale seed =
  let t0 = now () in
  let dir = fresh_dir "grid-traced" in
  let progs =
    variants scale ~compile:Shadow.compile ~apply:Shadow.apply_sequence
  in
  let grid_a, grid_b = grids scale seed in
  let store_dir = Filename.concat dir "tstore" in
  let store = Span.span "tstore.open" (fun () -> Tstore.open_dir store_dir) in
  let tc = Tcache.create () in
  let cold = List.map (fun (_, p) -> price tc store ~configs:grid_a p) progs in
  Shadow.set_fact "tcache.resident_mwords"
    (float_of_int (Tcache.resident_words tc) /. 1e6);
  Shadow.set_fact "tstore.bytes_per_word"
    (ratio (float_of_int (Tstore.payload_bytes store)) (Shadow.fact "mtrace.words"));
  Span.span "tstore.close" (fun () -> Tstore.close store);
  let store = Span.span "tstore.open" (fun () -> Tstore.open_dir store_dir) in
  let tc2 = Tcache.create () in
  let warm = List.map (fun (_, p) -> price tc2 store ~configs:grid_b p) progs in
  Span.span "tstore.close" (fun () -> Tstore.close store);
  let hits = Tcache.hits tc + Tcache.hits tc2
  and misses = Tcache.misses tc + Tcache.misses tc2 in
  Shadow.set_fact "tcache.hit_ratio"
    (ratio (float_of_int hits) (float_of_int (hits + misses)));
  let wall = now () -. t0 in
  (result_digest ~cold ~warm, wall)
