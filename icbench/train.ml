(* Workload [train]: the training period, one-shot prediction and
   iterative search on the AMD-like target, jobs 2.

   Cold: the knowledge base is built by [Icc.Characterize.build_kb] as
   one batch through the engine's worker pool (prefix-ordered compiling
   in the parent, simulation dedup, pool IPC).  Warm, over the reopened
   result cache: each suite program gets a leave-one-out prediction
   from the performance-counter model (PCModel, three online trials)
   and from static features, and a closed-loop model-focused search
   through [Engine.evaluator]; then the compiler predicts for unseen
   generated programs, and the KB makes a string round trip.  This is
   the only workload on the engine's evaluation paths and the only one
   running the knowledge base, the models, feature extraction and a
   search strategy. *)

open Common
module Pass = Passes.Pass
module Kb = Knowledge.Kb
module Characterize = Icc.Characterize
module Controller = Icc.Controller

let jobs = 2
let nominal_round_s = function Full -> 9.0 | Tiny -> 1.0
let config = Mach.Config.amd_like

let programs = function
  | Full -> Workloads.names
  | Tiny -> [ "crc32"; "qsort"; "histogram"; "sha_mix" ]

let per_program = function Full -> 2 | Tiny -> 1

(* the closed-loop iterative mode: a model-focused search of this
   budget per suite program *)
let search_budget = function Full -> 2 | Tiny -> 1

(* unseen programs the trained compiler is deployed on *)
let new_programs = function Full -> 60 | Tiny -> 4

let kb_seed seed = seed * 7919

(* generated sources (trap-free and terminating by construction) through
   the frontend *)
let generated ~frontend scale seed =
  List.init (new_programs scale) (fun i ->
      let s = (seed * 1009) + i in
      (Printf.sprintf "gen%d" s, frontend (Testgen.Gen_program.generate s)))

type prediction = {
  name : string;
  counters_seq : Pass.t list;  (* PCModel's choice *)
  cost : float;                (* its measured cycles *)
  static_seq : Pass.t list;    (* the static-feature model's choice *)
}

type res = {
  progs : (string * Mira.Ir.program) list;
  kb : Kb.t;
  preds : prediction list;     (* leave-one-out, suite programs *)
  searches : Search.Strategies.result list;  (* leave-one-out, iterative *)
  deployed : prediction list;  (* unseen generated programs *)
  round_trip_ok : bool;
}

let result_digest kb preds searches =
  let b = Rd.create () in
  Rd.str b (Kb.to_string kb);
  List.iter
    (fun (r : Search.Strategies.result) ->
      Array.iteri
        (fun i seq ->
          Rd.str b (Pass.sequence_to_string seq);
          Rd.float b r.Search.Strategies.history.(i))
        r.Search.Strategies.seqs)
    searches;
  List.iter
    (fun p ->
      Rd.str b p.name;
      Rd.str b (Pass.sequence_to_string p.counters_seq);
      Rd.float b p.cost;
      Rd.str b (Pass.sequence_to_string p.static_seq))
    preds;
  Rd.finish b

let round_trip kb =
  let s = Kb.to_string kb in
  let kb' = Kb.of_string s in
  Kb.to_string kb' = s && kb' = kb

let health eng =
  let h = Engine.health eng in
  h.respawns + h.spawn_failures + h.crashed_workers + h.timeouts + h.poisoned
  + h.serial_fallbacks + h.cache_quarantined + h.cache_write_errors
  + h.stale_locks_broken

(* one program's prediction by both models from [kb], and the measured
   cycles of PCModel's choice *)
let predict eng kb (name, p) =
  let c = Controller.one_shot_counters ~engine:eng ~trials:3 kb p in
  let s = Controller.one_shot ~config kb p in
  let seq = c.Controller.decision.Controller.sequence in
  { name; counters_seq = seq; cost = (Engine.eval eng p seq).Engine.cost;
    static_seq = s.Controller.decision.Controller.sequence }

let round scale seed =
  let t0 = now () in
  let cache_dir = Filename.concat (fresh_dir "train") "rcache" in
  let progs = List.map (fun n -> (n, compile n)) (programs scale) in
  let fresh = generated ~frontend:Mira.Lower.compile_source_exn scale seed in
  let cache = Engine.Rcache.open_dir cache_dir in
  let eng = Engine.create ~jobs ~cache config in
  ignore (Engine.eval_many eng (List.map (fun (_, p) -> (p, [])) progs));
  let setup_s = now () -. t0 in
  let evals0 = (Engine.stats eng).Engine.evals in
  (* cold: the training period, one pooled batch over fresh stores *)
  let t1 = now () in
  let kb =
    Characterize.build_kb ~engine:eng ~seed:(kb_seed seed)
      ~per_program:(per_program scale) progs
  in
  let cold_s = now () -. t1 in
  let cold_ops = (Engine.stats eng).Engine.evals - evals0 in
  let h_cold = health eng in
  (* warm: a fresh engine over the reopened result cache; a timed
     prediction for each unseen program, then leave-one-out predictions
     and searches for the suite *)
  let t2 = now () in
  Engine.Rcache.close cache;
  let cache = Engine.Rcache.open_dir cache_dir in
  let eng = Engine.create ~jobs ~cache config in
  let lat_ms = ref [] in
  let deployed =
    List.map
      (fun np ->
        let a = now () in
        let pr = predict eng kb np in
        lat_ms := ((now () -. a) *. 1000.0) :: !lat_ms;
        pr)
      fresh
  in
  let preds =
    List.map
      (fun (name, p) -> predict eng (Kb.without_program kb ~prog:name) (name, p))
      progs
  in
  let searches =
    List.mapi
      (fun i (name, p) ->
        snd
          (Controller.iterative ~engine:eng ~seed:(seed + i)
             ~budget:(search_budget scale) (Kb.without_program kb ~prog:name) p))
      progs
  in
  let round_trip_ok = round_trip kb in
  let warm_s = now () -. t2 in
  let warm_ops = (Engine.stats eng).Engine.evals in
  let health = h_cold + health eng in
  Engine.Rcache.close cache;
  ( { setup_s; wall_s = cold_s +. warm_s; cold_s; cold_ops; warm_s; warm_ops;
      lat_ms = !lat_ms; digest = result_digest kb (preds @ deployed) searches;
      health; pooled_s = cold_s },
    { progs; kb; preds; searches; deployed; round_trip_ok } )

let code_speedup r =
  geomean
    (List.map
       (fun p ->
         match
           Kb.characterization r.kb ~prog:p.name ~arch:config.Mach.Config.name
         with
         | Some c -> float_of_int c.Kb.o0_cycles /. p.cost
         | None -> nan)
       r.preds)

let report r =
  [ Printf.sprintf "kb: %d programs, %d experiments; %d unseen programs deployed"
      (List.length (Kb.programs r.kb)) (Kb.size r.kb) (List.length r.deployed) ]

(* The oracle, bypassing the engine, its trie and its caches:
   - the KB survives its string round trip equal;
   - a seeded sample of its experiments matches direct measurement
     ([eval_sequence] cycles and the compiled size), and one of them
     matches the reference interpreter;
   - each iterative search's best cost is re-measured by
     [eval_sequence]. *)
let oracle scale seed res ~corrupt =
  let rng = Random.State.make [| seed; 29 |] in
  let checks = ref 0 and bad = ref 0 in
  let check ok = incr checks; if not ok then incr bad in
  check res.round_trip_ok;
  let exps = Array.of_list res.kb.Kb.exps in
  let k = match scale with Full -> 8 | Tiny -> 3 in
  for i = 1 to k do
    let e = exps.(Random.State.int rng (Array.length exps)) in
    let claimed = if corrupt && i = 1 then e.Kb.cycles + 1 else e.Kb.cycles in
    let p = List.assoc e.Kb.eprog res.progs in
    let p' = Pass.apply_sequence e.Kb.seq p in
    check
      (Characterize.eval_sequence ~config p e.Kb.seq = float_of_int claimed
      && Mira.Ir.program_size p' = e.Kb.code_size);
    if i = k then
      check
        ((Mach.Sim.run ~engine:Mach.Sim.Ref ~config p').Mach.Sim.cycles = claimed)
  done;
  List.iter2
    (fun (_, p) (r : Search.Strategies.result) ->
      check
        (Characterize.eval_sequence ~config p r.Search.Strategies.best_seq
        = r.Search.Strategies.best_cost))
    res.progs res.searches;
  (!checks, !bad)

(* ------------------------------------------------------------------ *)
(* the traced round: [build_kb], [one_shot_counters] and [one_shot]
   spelled out as the layer calls they make *)

let build_kb sh ~seed ~per_program programs =
  let kb = Kb.create () in
  let plans =
    List.mapi
      (fun i (_, p) ->
        let rng = Random.State.make [| seed + i |] in
        List.map
          (fun seq -> (p, seq))
          (([] : Pass.t list) :: Pass.o2 :: Pass.ofast
           :: Search.Space.sample_distinct rng
                ~length:Search.Space.default_length per_program))
      programs
  in
  let outcomes = Shadow.eval_many sh (List.concat plans) in
  Span.span "kb" (fun () ->
      let cursor = ref 0 in
      List.iter2
        (fun (name, p) plan ->
          let first = !cursor in
          cursor := !cursor + List.length plan;
          (match outcomes.(first) with
           | Engine.Rcache.Measured { cycles; counters; _ } ->
             Kb.add_characterization kb
               { Kb.prog = name; arch = config.Mach.Config.name;
                 o0_cycles = cycles;
                 features =
                   Span.span "icc.features" (fun () -> Icc.Features.extract p);
                 counters = Characterize.counter_assoc counters }
           | Engine.Rcache.Failure _ ->
             Kb.add_characterization kb
               (Span.span "icc.features" (fun () ->
                    Characterize.characterize ~config ~prog:name p)));
          List.iteri
            (fun j (_, seq) ->
              match outcomes.(first + j) with
              | Engine.Rcache.Measured { cycles; code_size; _ } ->
                Kb.add_experiment kb
                  { Kb.eprog = name; earch = config.Mach.Config.name; seq;
                    cycles; code_size }
              | Engine.Rcache.Failure _ -> ())
            plan)
        programs plans);
  kb

let one_shot_counters sh kb p =
  let arch = config.Mach.Config.name in
  match Span.span "icc.model" (fun () -> Icc.Pcmodel.train kb ~arch) with
  | None ->
    ignore (Shadow.apply_sequence Pass.o2 p);
    Pass.o2
  | Some model ->
    let r = Shadow.sim_run ~config p in
    let counters = Characterize.counter_assoc r.Mach.Sim.counters in
    let ev = Shadow.evaluator sh p in
    let seq, _ =
      Span.span "icc.model" (fun () ->
          Icc.Pcmodel.predict_and_pick model ~trials:3 counters ev)
    in
    ignore (Span.span "icc.model" (fun () -> Icc.Pcmodel.neighbors model counters));
    ignore (Shadow.apply_sequence seq p);
    seq

let one_shot kb p =
  let arch = config.Mach.Config.name in
  let feats =
    Span.span "icc.features" (fun () ->
        Icc.Features.restrict_to_similarity (Icc.Features.extract p))
  in
  let neighbors =
    Span.span "icc.model" (fun () ->
        Search.Focused.nearest_programs kb ~arch ~target_features:feats ~n:1)
  in
  let seq =
    match neighbors with
    | prog :: _ -> (
      match Span.span "kb" (fun () -> Kb.best kb ~prog ~arch) with
      | Some e -> e.Kb.seq
      | None -> Pass.o2)
    | [] -> Pass.o2
  in
  ignore (Shadow.apply_sequence seq p);
  seq

let iterative sh kb ~seed ~budget p =
  let arch = config.Mach.Config.name in
  let params = Search.Focused.default_params in
  let feats =
    Span.span "icc.features" (fun () ->
        Icc.Features.restrict_to_similarity (Icc.Features.extract p))
  in
  let model =
    Span.span "icc.model" (fun () ->
        Search.Focused.fit_model kb ~arch ~params ~target_features:feats)
  in
  let ev = Shadow.evaluator sh p in
  let r = Span.span "search" (fun () -> Search.Focused.search ~seed ~budget model ev) in
  ignore
    (Span.span "icc.model" (fun () ->
         Search.Focused.nearest_programs kb ~arch ~target_features:feats
           ~n:params.Search.Focused.neighbors));
  ignore (Shadow.apply_sequence r.Search.Strategies.best_seq p);
  r

let traced scale seed =
  let t0 = now () in
  let cache_dir = Filename.concat (fresh_dir "train-traced") "rcache" in
  let progs = List.map (fun n -> (n, Shadow.compile n)) (programs scale) in
  let fresh =
    generated scale seed ~frontend:(fun src ->
        Span.span "mira.compile" (fun () -> Mira.Lower.compile_source_exn src))
  in
  let open_cache () =
    Span.span "rcache.open" (fun () -> Engine.Rcache.open_dir cache_dir)
  in
  let predict sh kb (name, p) =
    let counters_seq = one_shot_counters sh kb p in
    let static_seq = one_shot kb p in
    let cost =
      Shadow.cost (Shadow.eval sh p ~prog_digest:(Shadow.digest p) counters_seq)
    in
    { name; counters_seq; cost; static_seq }
  in
  let cache = open_cache () in
  let sh = Shadow.create ~jobs ~cache config in
  ignore (Shadow.eval_many sh (List.map (fun (_, p) -> (p, [])) progs));
  let kb =
    build_kb sh ~seed:(kb_seed seed) ~per_program:(per_program scale) progs
  in
  Span.span "rcache.close" (fun () -> Engine.Rcache.close cache);
  let cache = open_cache () in
  let sh = Shadow.create ~jobs ~cache config in
  let deployed = List.map (predict sh kb) fresh in
  let preds =
    List.map
      (fun (name, p) ->
        predict sh
          (Span.span "kb" (fun () -> Kb.without_program kb ~prog:name))
          (name, p))
      progs
  in
  let searches =
    List.mapi
      (fun i (name, p) ->
        iterative sh
          (Span.span "kb" (fun () -> Kb.without_program kb ~prog:name))
          ~seed:(seed + i) ~budget:(search_budget scale) p)
      progs
  in
  ignore (Span.span "kb" (fun () -> round_trip kb));
  Span.span "rcache.close" (fun () -> Engine.Rcache.close cache);
  let wall = now () -. t0 in
  (result_digest kb (preds @ deployed) searches, wall)
