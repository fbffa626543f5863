(* icbench: the repository's benchmark.

     icbench --workload train|grid --seed N --seconds S --trace 0|1
             [--scale full|tiny] [--corrupt-oracle]

   A run is a fixed number of rounds of its workload, as many as fit
   into [--seconds] on the reference host; each round has its own seeded
   inputs, its set-up, then a timed cold part over fresh stores and a
   warm part over the reopened ones.  The run checks its answers
   against an oracle that bypasses the engine and prints as its last
   line one JSON object:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   With [--trace 0] the metrics are the end-to-end ones, measured with
   tracing off.  With [--trace 1] one more round runs traced — the
   benchmark calling each layer itself, one span per call — and the
   metrics are the per-layer ones.  See README.md. *)

open Common

module type WORKLOAD = sig
  type res

  val jobs : int
  val nominal_round_s : scale -> float
  val round : scale -> int -> round * res
  val code_speedup : res -> float
  val report : res -> string list
  val oracle : scale -> int -> res -> corrupt:bool -> int * int
  val traced : scale -> int -> string * float
end

let workloads : (string * (module WORKLOAD)) list =
  [ ("train", (module Train));
    ("grid", (module Grid)) ]

(* ------------------------------------------------------------------ *)
(* command line: anything not understood is an error, never ignored *)

let usage =
  "usage: icbench --workload train|grid --seed N --seconds S --trace 0|1\n\
  \                [--scale full|tiny] [--corrupt-oracle]"

let die fmt =
  Printf.ksprintf (fun m -> prerr_endline ("icbench: " ^ m); prerr_endline usage; exit 2) fmt

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  scale : scale;
  corrupt : bool;
}

let parse argv =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s expects an integer, got %S" flag v
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest ->
      if not (List.mem_assoc v workloads) then die "unknown workload %S" v;
      go { o with workload = v } rest
    | "--seed" :: v :: rest -> go { o with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
      let s = int_arg "--seconds" v in
      if s < 1 then die "--seconds must be at least 1";
      go { o with seconds = float_of_int s } rest
    | "--trace" :: v :: rest -> (
      match v with
      | "0" -> go { o with trace = false } rest
      | "1" -> go { o with trace = true } rest
      | _ -> die "--trace expects 0 or 1, got %S" v)
    | "--scale" :: v :: rest -> (
      match v with
      | "full" -> go { o with scale = Full } rest
      | "tiny" -> go { o with scale = Tiny } rest
      | _ -> die "--scale expects full or tiny, got %S" v)
    | "--corrupt-oracle" :: rest -> go { o with corrupt = true } rest
    | [ ("--workload" | "--seed" | "--seconds" | "--trace" | "--scale") as f ] ->
      die "missing value after %s" f
    | a :: _ -> die "unknown argument %S" a
  in
  let o =
    go
      { workload = ""; seed = 1; seconds = 10.0; trace = false; scale = Full;
        corrupt = false }
      (List.tl (Array.to_list argv))
  in
  if o.workload = "" then die "--workload is required";
  o

(* ------------------------------------------------------------------ *)
(* provenance: git rev and dirty-diff digest when run in a git checkout
   (only then: no looking outside the working directory), a digest of
   the library sources (which identifies the code outside git too),
   host cores, compiler, seed *)

let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | es ->
      Array.to_list es |> List.sort compare
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
             then [ p ]
             else [])
  in
  match files "lib" with
  | [] -> "unknown"
  | fs ->
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            (List.map (fun f -> f ^ "\x00" ^ Digest.to_hex (Digest.file f)) fs)))

let provenance o =
  let git = Sys.file_exists ".git" in
  [ ("git_rev", if git then Engine.Shard.git_revision () else "unknown");
    ("git_dirty", if git then Engine.Shard.git_dirty_digest () else "unknown");
    ("lib_sources", source_digest ());
    ("nproc", string_of_int (nproc ()));
    ("ocaml", Sys.ocaml_version);
    ("workload", o.workload);
    ("seed", string_of_int o.seed);
    ("scale", match o.scale with Full -> "full" | Tiny -> "tiny") ]

(* ------------------------------------------------------------------ *)
(* per-layer metrics of the traced round *)

let layer_metrics ~jobs ~traced_wall ~untraced_wall ~pooled_s =
  let spans = !Span.recorded in
  let selfs = Span.self_times spans in
  let sum f name =
    List.fold_left
      (fun a ((s : Span.t), self) -> if s.name = name then a +. f s self else a)
      0.0 selfs
  in
  let self_ms name = 1000.0 *. sum (fun _ self -> self) name in
  let dur_s name = sum (fun s _ -> s.Span.t1 -. s.Span.t0) name in
  let f = Shadow.fact in
  let attributed =
    List.fold_left
      (fun a ((s : Span.t), self) -> if s.track = 0 then a +. self else a)
      0.0 selfs
  in
  [ ("mira.compile_ms", self_ms "mira.compile", "ms");
    ("passes.apply_ms", self_ms "passes.apply", "ms");
    ("passes.applied", f "passes.applied", "count");
    ("pctrie.digest_ms", self_ms "pctrie.digest", "ms");
    ("pctrie.digests", f "pctrie.digests", "count");
    ( "pctrie.hit_ratio",
      ratio (f "pctrie.hits") (f "pctrie.hits" +. f "pctrie.misses"),
      "ratio" );
    ("engine.sims", f "engine.sims", "count");
    ( "engine.shared_ratio",
      (if f "engine.evals" = 0.0 then 0.0
       else 1.0 -. (f "engine.sims" /. f "engine.evals")),
      "ratio" );
    ("engine.overhead_ms", self_ms "engine.eval" +. self_ms "engine.batch", "ms");
    ("decode.ms", self_ms "decode", "ms");
    ("decode.calls", f "decode.calls", "count");
    ("flatsim.ms", self_ms "flatsim", "ms");
    ( "flatsim.msteps_per_s",
      ratio (f "flatsim.steps" /. 1e6) (dur_s "flatsim"),
      "M/s" );
    ("mtrace.gen_ms", self_ms "mtrace.gen", "ms");
    ( "mtrace.mwords_per_s",
      ratio (f "mtrace.words" /. 1e6) (dur_s "mtrace.gen"),
      "M/s" );
    ("replay.ms", self_ms "replay", "ms");
    ( "replay.mwords_per_s",
      ratio (f "replay.words" /. 1e6) (dur_s "replay"),
      "M/s" );
    ("tstore.open_ms", self_ms "tstore.open" +. self_ms "tstore.close", "ms");
    ("tstore.add_ms", self_ms "tstore.add", "ms");
    ("tstore.find_ms", self_ms "tstore.find", "ms");
    ("tstore.bytes_per_word", f "tstore.bytes_per_word", "B/word");
    ("tcache.hit_ratio", f "tcache.hit_ratio", "ratio");
    ("tcache.resident_mwords", f "tcache.resident_mwords", "Mword");
    ("rcache.open_ms", self_ms "rcache.open" +. self_ms "rcache.close", "ms");
    ("rcache.find_ms", self_ms "rcache.find", "ms");
    ("rcache.add_ms", self_ms "rcache.add", "ms");
    ("rcache.hit_ratio", ratio (f "rcache.hits") (f "rcache.finds"), "ratio");
    ("pool.ms", self_ms "pool", "ms");
    ("pool.tasks", f "pool.tasks", "count");
    ( "pool.efficiency",
      ratio (dur_s "pool.task") (float_of_int jobs *. pooled_s),
      "ratio" );
    ("kb.ms", self_ms "kb", "ms");
    ("icc.features_ms", self_ms "icc.features", "ms");
    ("icc.model_ms", self_ms "icc.model", "ms");
    ("search.self_ms", self_ms "search", "ms");
    ("unattributed_ratio", (traced_wall -. attributed) /. traced_wall, "ratio");
    ("trace_overhead_ratio", (traced_wall /. untraced_wall) -. 1.0, "ratio") ]

(* ------------------------------------------------------------------ *)
(* end-to-end metrics, from the untraced rounds *)

(* The latency percentiles pool the rounds' samples; the report shows
   the sorted neighbourhood of each, so a percentile that falls into a
   gap between two latency clusters shows. *)
let latency rounds =
  let sorted =
    Array.of_list (List.sort compare (List.concat_map (fun r -> r.lat_ms) rounds))
  in
  let n = Array.length sorted in
  let around q =
    let r = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    let lo = max 0 (r - 4) and hi = min (n - 1) (r + 2) in
    String.concat " "
      (List.init (max 0 (hi - lo + 1)) (fun i ->
           let j = lo + i in
           Printf.sprintf (if j = r - 1 then "[%.1f]" else "%.1f") sorted.(j)))
  in
  ( sorted,
    Printf.sprintf
      "latency: %d samples; around p50: %s; around p90: %s; %d beyond p90" n
      (around 0.5) (around 0.9)
      (n - int_of_float (ceil (0.9 *. float_of_int n))) )

(* Times and rates aggregate every round of the run (the time to a
   result is the mean round; a rate is all operations over all the
   phase's time); set-up is the median of the rounds' set-ups. *)
let end_to_end rounds ~code_speedup =
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rounds in
  let ops f = sum (fun r -> float_of_int (f r)) in
  let sorted, _ = latency rounds in
  [ ("setup_s", median (List.map (fun r -> r.setup_s) rounds), "s");
    ("wall_s", sum (fun r -> r.wall_s) /. float_of_int (List.length rounds), "s");
    ( "evals_per_s",
      ops (fun r -> r.cold_ops + r.warm_ops) /. sum (fun r -> r.wall_s),
      "1/s" );
    ("eval_p50_ms", percentile sorted 0.5, "ms");
    ("eval_p90_ms", percentile sorted 0.9, "ms");
    ("cold_prices_per_s", ops (fun r -> r.cold_ops) /. sum (fun r -> r.cold_s), "1/s");
    ("warm_prices_per_s", ops (fun r -> r.warm_ops) /. sum (fun r -> r.warm_s), "1/s");
    ("code_speedup", code_speedup, "x");
    ("peak_rss_mb", peak_rss_mb (), "MiB") ]

(* ------------------------------------------------------------------ *)
(* output *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_result ~correct ~attempted ~failed (metrics : metric list) =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (json_num v) u)
          metrics))

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let main () =
  let o = parse Sys.argv in
  (* a terminated run still removes its stores *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let (module W : WORKLOAD) = List.assoc o.workload workloads in
  let prov = provenance o in
  Printf.printf "icbench %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) prov));
  (* [--seconds] fixes the number of rounds, at the nominal round length
     of the workload on the reference host, so a seed always runs the
     same rounds and the run digest repeats.  Round [r] draws its inputs
     from (seed, r); each starts from a compacted heap.  On a host much
     slower than the reference the run stops early, at 1.3 x [--seconds],
     and says so. *)
  let nrounds =
    max 1 (int_of_float (Float.round (o.seconds /. W.nominal_round_s o.scale)))
  in
  let round_seed r = Hashtbl.hash (o.seed, r) in
  let t_start = now () in
  let rounds, speedups, first_res =
    let rec loop r acc sp first =
      let late = r > 0 && now () -. t_start > 1.3 *. o.seconds in
      if late then
        Printf.printf "stopped after %d of %d rounds: host slower than the reference\n" r nrounds;
      if r = nrounds || late then (List.rev acc, List.rev sp, Option.get first)
      else begin
        Gc.compact ();
        let rd, res = W.round o.scale (round_seed r) in
        loop (r + 1) (rd :: acc) (W.code_speedup res :: sp)
          (if first = None then Some res else first)
      end
    in
    loop 0 [] [] None
  in
  let first = List.hd rounds in
  List.iteri
    (fun i r ->
      Printf.printf "round %d: setup %.3fs cold %.3fs (%d ops) warm %.3fs (%d ops) digest %s\n"
        (i + 1) r.setup_s r.cold_s r.cold_ops r.warm_s r.warm_ops r.digest)
    rounds;
  let run_digest =
    Digest.to_hex (Digest.string (String.concat "" (List.map (fun r -> r.digest) rounds)))
  in
  Printf.printf "run digest %s\n" run_digest;
  let checks, mismatches =
    W.oracle o.scale (round_seed 0) first_res ~corrupt:o.corrupt
  in
  let health = List.fold_left (fun a r -> a + r.health) 0 rounds in
  (* every operation of every round, each oracle check, and the traced
     round's comparison *)
  let attempted =
    List.fold_left (fun a r -> a + r.cold_ops + r.warm_ops) checks rounds
    + if o.trace then 1 else 0
  in
  Printf.printf "oracle: %d checks, %d mismatches; engine-health events: %d\n"
    checks mismatches health;
  print_endline (snd (latency rounds));
  List.iter print_endline (W.report first_res);
  let e2e = end_to_end rounds ~code_speedup:(geomean speedups) in
  let traced_disagree, metrics =
    if not o.trace then (0, e2e)
    else begin
      Span.reset ();
      Hashtbl.reset Shadow.facts;
      let digest, traced_wall = W.traced o.scale (round_seed 0) in
      (* compared with the untraced round on the same inputs *)
      let layers =
        layer_metrics ~jobs:W.jobs ~traced_wall
          ~untraced_wall:(first.setup_s +. first.wall_s)
          ~pooled_s:first.pooled_s
      in
      let spans_file =
        Filename.concat out_root
          (Printf.sprintf "spans-%s-seed%d.json" o.workload o.seed)
      in
      Span.write_chrome spans_file !Span.recorded;
      Printf.printf "traced round: wall %.3fs digest %s (%s); %d spans in %s\n"
        traced_wall digest
        (if digest = first.digest then "equal" else "DIFFERENT")
        (List.length !Span.recorded) spans_file;
      ((if digest = first.digest then 0 else 1), layers)
    end
  in
  let failed = health + mismatches + traced_disagree in
  let correct = mismatches = 0 && traced_disagree = 0 in
  List.iter (fun (n, v, u) -> Printf.printf "  %-24s %14.4f %s\n" n v u) metrics;
  let result =
    json_result ~correct ~attempted ~failed metrics
  in
  write_file
    (Filename.concat out_root
       (Printf.sprintf "report-%s-seed%d%s.json" o.workload o.seed
          (if o.trace then "-traced" else "")))
    (Printf.sprintf "{\"provenance\": {%s}, \"rounds\": %d, \"result\": %s}\n"
       (String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" k v) prov))
       (List.length rounds) result);
  print_endline result;
  exit (if correct then 0 else 1)

let () = main ()
