(* The benchmark's own tests (run by `dune runtest`):
   - the command line rejects what it does not understand;
   - a tiny-scale run of each workload passes its oracle with no failed
     operation and prints every end-to-end metric of BENCHMARK.json
     with its unit, and the same seed repeats the result digest;
   - a corrupted answer fed to each oracle is caught;
   - a traced tiny run of each workload prints every per-layer metric
     of BENCHMARK.json with its unit and equals the untraced digest.

   usage: test_icbench.exe MAIN_EXE BENCHMARK_JSON *)

let exe = Sys.argv.(1)
let spec = Sys.argv.(2)
let failures = ref 0

let fail fmt =
  Printf.ksprintf (fun m -> incr failures; prerr_endline ("FAIL: " ^ m)) fmt

let read_file f = In_channel.with_open_bin f In_channel.input_all

(* run the benchmark; its stdout lines and exit code (stderr dropped) *)
let run args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w null
  in
  Unix.close w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _ -> -1
  in
  (String.split_on_char '\n' (String.trim out), code)

let last lines = List.nth lines (List.length lines - 1)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* (name, unit) pairs of one metric section of BENCHMARK.json *)
let section key =
  let s = read_file spec in
  let start = Str.search_forward (Str.regexp_string ("\"" ^ key ^ "\"")) s 0 in
  let stop = String.index_from s start ']' in
  let body = String.sub s start (stop - start) in
  let re =
    Str.regexp "\"name\": *\"\\([^\"]*\\)\", *\"unit\": *\"\\([^\"]*\\)\""
  in
  let rec go pos acc =
    match Str.search_forward re body pos with
    | exception Not_found -> List.rev acc
    | p ->
      go (p + 1) ((Str.matched_group 1 body, Str.matched_group 2 body) :: acc)
  in
  go 0 []

let has_metrics what json metrics =
  List.iter
    (fun (n, u) ->
      let re =
        Str.regexp
          (Printf.sprintf "\"%s\": {\"value\": [-0-9.e+]+, \"unit\": \"%s\"}"
             (Str.quote n) (Str.quote u))
      in
      match Str.search_forward re json 0 with
      | _ -> ()
      | exception Not_found -> fail "%s: metric %s [%s] missing" what n u)
    metrics

(* the result digest of a run *)
let digest lines =
  match List.find_opt (fun l -> contains l "run digest ") lines with
  | Some l -> l
  | None -> ""

let tiny w seed extra =
  run ([ "--workload"; w; "--seed"; string_of_int seed; "--seconds"; "1";
         "--scale"; "tiny" ] @ extra)

let () =
  (* command-line hygiene *)
  List.iter
    (fun args ->
      let lines, code = run args in
      if code <> 2 then fail "%s: exit %d, expected 2" (String.concat " " args) code;
      if List.exists (fun l -> contains l "\"correct\"") lines then
        fail "%s: printed a result" (String.concat " " args))
    [ [ "--workload"; "train"; "--bogus" ];
      [ "--workload"; "nope" ];
      [ "--workload"; "train"; "--seed"; "1.5" ];
      [ "--workload"; "train"; "--trace"; "2" ];
      [ "--seed"; "1" ];
      [ "--workload"; "train"; "--seed" ] ];
  let e2e = section "end_to_end" and layers = section "per_layer" in
  if e2e = [] || layers = [] then fail "no metrics found in %s" spec;
  List.iter
    (fun w ->
      let lines, code = tiny w 5 [ "--trace"; "0" ] in
      let json = last lines in
      if code <> 0 then fail "%s: exit %d" w code;
      if not (contains json "\"correct\": true, ") then fail "%s: not correct" w;
      if not (contains json "\"failed\": 0, ") then fail "%s: failed operations" w;
      has_metrics w json e2e;
      (* the same seed repeats the result digest *)
      let lines', _ = tiny w 5 [ "--trace"; "0" ] in
      if digest lines = "" || digest lines <> digest lines' then
        fail "%s: digest does not repeat" w;
      (* a corrupted answer is caught *)
      let bad, code = tiny w 5 [ "--trace"; "0"; "--corrupt-oracle" ] in
      if code <> 1 || not (contains (last bad) "\"correct\": false") then
        fail "%s: corrupted answer not caught (exit %d)" w code;
      (* the traced run *)
      let traced, code = tiny w 5 [ "--trace"; "1" ] in
      if code <> 0 then fail "%s traced: exit %d" w code;
      if not (List.exists (fun l -> contains l "(equal)") traced) then
        fail "%s traced: digest differs from the untraced run" w;
      has_metrics (w ^ " traced") (last traced) layers)
    [ "train"; "grid" ];
  if !failures > 0 then exit 1
