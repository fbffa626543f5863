(* The traced run's view of the evaluation engine.

   [Engine] calls its sub-layers internally, so spans around
   [Engine.eval] could only say "the engine took this long".  For the
   per-layer numbers the traced run calls each layer's public functions
   itself — [Pctrie.digest], [Passes.Pass.apply], [Rcache.find]/[add],
   [Mira.Decode.decode], [Mach.Sim.run_decoded], [Pool.map] — in the
   order [Engine] calls them, with one span per call.  Its results must
   equal the untraced run's result digest: that is the check that this
   decomposition is faithful to the engine it stands in for.

   Counts made at the same boundaries go into [facts]. *)

open Common
module Ir = Mira.Ir
module Pass = Passes.Pass
module Rcache = Engine.Rcache
module Pool = Engine.Pool

let facts : (string, float) Hashtbl.t = Hashtbl.create 32

let count ?(by = 1.0) k =
  Hashtbl.replace facts k
    (by +. Option.value ~default:0.0 (Hashtbl.find_opt facts k))

let fact k = Option.value ~default:0.0 (Hashtbl.find_opt facts k)
let set_fact k v = Hashtbl.replace facts k v

(* ------------------------------------------------------------------ *)
(* single-layer calls *)

let compile name = Span.span "mira.compile" (fun () -> compile name)

let digest p =
  count "pctrie.digests";
  Span.span "pctrie.digest" (fun () -> Engine.Pctrie.digest p)

let pass_apply pass p =
  count "passes.applied";
  Span.span "passes.apply" (fun () -> Pass.apply pass p)

let apply_sequence seq p = List.fold_left (fun p pass -> pass_apply pass p) p seq

let decode p =
  count "decode.calls";
  Span.span "decode" (fun () -> Mira.Decode.decode p)

(* [Mach.Sim.run] on the flat engine is decode + run_decoded *)
let sim_run ?(fuel = Mach.Sim.default_fuel) ~config p =
  let dp = decode p in
  let r = Span.span "flatsim" (fun () -> Mach.Sim.run_decoded ~config ~fuel dp) in
  count ~by:(float_of_int r.Mach.Sim.steps) "flatsim.steps";
  r

(* Worker side of a pooled task: spans recorded on the worker's track
   under one "pool.task" span, returned with the result together with
   the counts the task made (the facts table itself is left as it was,
   so a task the pool runs in the calling process is not counted
   twice). *)
let in_worker op f =
  let before = Hashtbl.copy facts in
  let r, spans =
    Span.collect (fun () ->
        Span.with_op op (fun () -> Span.span "pool.task" f))
  in
  let delta =
    Hashtbl.fold
      (fun k v acc ->
        (k, v -. Option.value ~default:0.0 (Hashtbl.find_opt before k)) :: acc)
      facts []
  in
  Hashtbl.reset facts;
  Hashtbl.iter (Hashtbl.replace facts) before;
  (r, spans, delta)

let adopt = function
  | Pool.Done (r, spans, delta) ->
    Span.adopt spans;
    List.iter (fun (k, by) -> count ~by k) delta;
    Some r
  | Pool.Failed _ | Pool.Crashed | Pool.Timed_out ->
    count "health.pool_failures";
    None

(* ------------------------------------------------------------------ *)
(* the engine path: key, cache, trie, dedup, simulate *)

type t = {
  config : Mach.Config.t;
  config_digest : string;
  fuel : int;
  jobs : int;
  cache : Rcache.t;
  trie : (string, Ir.program * string) Hashtbl.t;
}

let create ?(jobs = 1) ~cache config =
  {
    config;
    config_digest = Mach.Config.digest config;
    fuel = Mach.Sim.default_fuel;
    jobs;
    cache;
    trie = Hashtbl.create 1024;
  }

let key t ~prog_digest seq =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ prog_digest; Pass.sequence_to_string seq; t.config_digest;
            string_of_int t.fuel; Pass.version ]))

let sim_key t d =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ "sim"; d; t.config_digest; string_of_int t.fuel ]))

let find t k =
  count "rcache.finds";
  let r = Span.span "rcache.find" (fun () -> Rcache.find t.cache k) in
  if r <> None then count "rcache.hits";
  r

let add t k e = Span.span "rcache.add" (fun () -> Rcache.add t.cache k e)

(* one trie edge: the memoized (result, digest) of [pass] on the state
   digested [d] (the trie's bounded LRU never evicts at these sizes) *)
let trie_apply t (p, d) pass =
  let k = d ^ "|" ^ Pass.name pass in
  match Hashtbl.find_opt t.trie k with
  | Some v ->
    count "pctrie.hits";
    v
  | None ->
    count "pctrie.misses";
    let p' = pass_apply pass p in
    let v = (p', digest p') in
    Hashtbl.replace t.trie k v;
    v

let compile_seq t p ~prog_digest seq =
  List.fold_left (trie_apply t) (p, prog_digest) seq

let run_sim t p' d : Rcache.entry =
  match sim_run ~fuel:t.fuel ~config:t.config p' with
  | r ->
    Rcache.Measured
      { ir_digest = d; cycles = r.Mach.Sim.cycles;
        code_size = Ir.program_size p';
        counters = Array.copy r.Mach.Sim.counters }
  | exception (Mira.Interp.Trap _ | Mira.Interp.Out_of_fuel) ->
    Rcache.Failure { ir_digest = d }

let cost = function
  | Rcache.Measured { cycles; _ } -> float_of_int cycles
  | Rcache.Failure _ -> infinity

let eval t p ~prog_digest seq : Rcache.entry =
  Span.with_op (Span.new_op ()) (fun () ->
      Span.span "engine.eval" (fun () ->
          count "engine.evals";
          let k = key t ~prog_digest seq in
          match find t k with
          | Some e -> e
          | None ->
            let p', d = compile_seq t p ~prog_digest seq in
            let sk = sim_key t d in
            let e =
              match find t sk with
              | Some e -> e
              | None ->
                count "engine.sims";
                let e = run_sim t p' d in
                add t sk e;
                e
            in
            add t k e;
            e))

(* [Engine.evaluator]: the program digested once *)
let evaluator t p =
  let prog_digest = digest p in
  fun seq -> cost (eval t p ~prog_digest seq)

(* [Engine.eval_many] with sharing on: resolve hits, compile the misses
   in prefix order through the trie, one simulation job per distinct
   uncached compiled program, pooled in prefix-local order, then fill
   the cache as the engine does. *)
let eval_many t pairs : Rcache.entry array =
  Span.span "engine.batch" (fun () ->
      let tasks = Array.of_list pairs in
      let n = Array.length tasks in
      count ~by:(float_of_int n) "engine.evals";
      let ops = Array.init n (fun _ -> Span.new_op ()) in
      let seen = ref [] in
      let digest_of p =
        match List.find_opt (fun (q, _) -> q == p) !seen with
        | Some (_, d) -> d
        | None ->
          let d = digest p in
          seen := (p, d) :: !seen;
          d
      in
      let digests = Array.map (fun (p, _) -> digest_of p) tasks in
      let keys =
        Array.mapi (fun i (_, s) -> key t ~prog_digest:digests.(i) s) tasks
      in
      let resolved = Hashtbl.create n in
      let miss_slots = ref [] in
      Array.iteri
        (fun i k ->
          if not (Hashtbl.mem resolved k) then
            match Span.with_op ops.(i) (fun () -> find t k) with
            | Some e -> Hashtbl.replace resolved k e
            | None ->
              Hashtbl.replace resolved k (Rcache.Failure { ir_digest = "" });
              miss_slots := i :: !miss_slots)
        keys;
      let miss_slots = Array.of_list (List.rev !miss_slots) in
      let order = Array.copy miss_slots in
      Array.sort
        (fun a b ->
          let c = Pass.compare_sequence (snd tasks.(a)) (snd tasks.(b)) in
          if c <> 0 then c else compare a b)
        order;
      let compiled = Hashtbl.create (max 16 (Array.length order)) in
      Array.iter
        (fun i ->
          let p, seq = tasks.(i) in
          Hashtbl.replace compiled i
            (Span.with_op ops.(i) (fun () ->
                 compile_seq t p ~prog_digest:digests.(i) seq)))
        order;
      let sk_of = Hashtbl.create 16 in
      let sim_entries = Hashtbl.create 16 in
      let job_of_sk = Hashtbl.create 16 in
      let jobs_rev = ref [] and njobs = ref 0 in
      Array.iter
        (fun i ->
          let p', d = Hashtbl.find compiled i in
          let sk = sim_key t d in
          Hashtbl.replace sk_of i sk;
          if not (Hashtbl.mem job_of_sk sk || Hashtbl.mem sim_entries sk) then
            match Span.with_op ops.(i) (fun () -> find t sk) with
            | Some e -> Hashtbl.replace sim_entries sk e
            | None ->
              Hashtbl.replace job_of_sk sk !njobs;
              jobs_rev := (sk, p', d, ops.(i)) :: !jobs_rev;
              incr njobs)
        miss_slots;
      let sim_jobs = Array.of_list (List.rev !jobs_rev) in
      let sched_rev = ref [] in
      let scheduled = Array.make (max 1 !njobs) false in
      Array.iter
        (fun i ->
          match Hashtbl.find_opt job_of_sk (Hashtbl.find sk_of i) with
          | Some j when not scheduled.(j) ->
            scheduled.(j) <- true;
            sched_rev := j :: !sched_rev
          | _ -> ())
        order;
      let schedule = Array.of_list (List.rev !sched_rev) in
      count ~by:(float_of_int !njobs) "pool.tasks";
      let computed =
        Span.span "pool" (fun () ->
            Pool.map ~jobs:t.jobs ~schedule
              (fun j ->
                let _, p', d, op = sim_jobs.(j) in
                in_worker op (fun () -> run_sim t p' d))
              (Array.init !njobs Fun.id))
      in
      count ~by:(float_of_int !njobs) "engine.sims";
      let unreliable_sk = Hashtbl.create 4 and unreliable = Hashtbl.create 4 in
      Array.iteri
        (fun j r ->
          let sk, _, _, op = sim_jobs.(j) in
          match adopt r with
          | Some e ->
            Hashtbl.replace sim_entries sk e;
            Span.with_op op (fun () -> add t sk e)
          | None -> Hashtbl.replace unreliable_sk sk ())
        computed;
      Array.iter
        (fun i ->
          let k = keys.(i) and sk = Hashtbl.find sk_of i in
          if Hashtbl.mem unreliable_sk sk then Hashtbl.replace unreliable k ()
          else begin
            let e = Hashtbl.find sim_entries sk in
            Hashtbl.replace resolved k e;
            Span.with_op ops.(i) (fun () -> add t k e)
          end)
        miss_slots;
      Array.map
        (fun k ->
          if Hashtbl.mem unreliable k then Rcache.Failure { ir_digest = "" }
          else Hashtbl.find resolved k)
        keys)
