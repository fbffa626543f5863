(* Memoized single-pass compilation keyed by (input-IR digest, pass).
   See the .mli for the soundness argument; the LRU follows Rcache's
   touch/stamp discipline so eviction is O(1) amortized. *)

module Ir = Mira.Ir
module Pass = Passes.Pass

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type t = {
  tbl : (string, (Ir.program * string) * int) Hashtbl.t;
  order : (string * int) Queue.t;
  mutable stamp : int;
  capacity : int;
  stats : stats;
}

let default_capacity = 4096

(* mirrored into the global registry so `--metrics` shows trie traffic
   next to the engine's eval/hit/miss counters *)
let m_hits = Obs.Metrics.counter "engine.trie_hits"
let m_misses = Obs.Metrics.counter "engine.trie_misses"
let m_evictions = Obs.Metrics.counter "engine.trie_evictions"

let create ?(capacity = default_capacity) () =
  {
    tbl = Hashtbl.create 1024;
    order = Queue.create ();
    stamp = 0;
    capacity = max 1 capacity;
    stats = { hits = 0; misses = 0; evictions = 0 };
  }

(* Program identity: MD5 over a versioned binary encoding of the whole
   program value.  The encoding walks the structure itself rather than
   its printed form, so nothing the printer omits can drop out: each
   function's fresh-name counters ([nregs]/[nlabels], read by passes
   that mint fresh registers or labels), each global's element type and
   initializers ([gelt] is rewritten by the packing pass based on
   [ginit]), and [main] are encoded next to the code.  Every variable
   length field carries a length or count prefix and every variant a
   tag, so distinct programs have distinct preimages.

   [format_tag] leads the preimage.  Changing the encoding in any way
   must change the tag: every cache key (Rcache, Tstore, Tcache,
   Journal) derives from this digest, so the old entries then become
   unreachable orphans instead of being served under a new meaning. *)
let format_tag = "mira-ir-digest/2"

(* unsigned LEB128 over the 63-bit word: prefix-free, so concatenated
   fields stay injective; negative ints take the full nine bytes *)
let rec add_int b n =
  if n land lnot 0x7f = 0 then Buffer.add_uint8 b n
  else begin
    Buffer.add_uint8 b (n land 0x7f lor 0x80);
    add_int b (n lsr 7)
  end

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_list b f l =
  add_int b (List.length l);
  List.iter f l

let add_elt b = function
  | Ir.EltInt -> Buffer.add_uint8 b 0
  | Ir.EltFloat -> Buffer.add_uint8 b 1
  | Ir.EltInt32 -> Buffer.add_uint8 b 2

let add_operand b = function
  | Ir.Reg r -> Buffer.add_uint8 b 0; add_int b r
  | Ir.Cint n -> Buffer.add_uint8 b 1; add_int b n
  | Ir.Cfloat f -> Buffer.add_uint8 b 2; Buffer.add_int64_le b (Int64.bits_of_float f)
  | Ir.Cbool v -> Buffer.add_uint8 b (if v then 4 else 3)
  | Ir.AGlob s -> Buffer.add_uint8 b 5; add_str b s
  | Ir.ALoc s -> Buffer.add_uint8 b 6; add_str b s

let add_instr b i =
  let tag t d = Buffer.add_uint8 b t; add_int b d in
  let ops = List.iter (add_operand b) in
  match i with
  | Ir.Bin (o, d, x, y) -> tag 0 d; add_str b (Ir.string_of_arith o); ops [ x; y ]
  | Ir.Fbin (o, d, x, y) -> tag 1 d; add_str b (Ir.string_of_farith o); ops [ x; y ]
  | Ir.Icmp (o, d, x, y) -> tag 2 d; add_str b (Ir.string_of_cmp o); ops [ x; y ]
  | Ir.Fcmp (o, d, x, y) -> tag 3 d; add_str b (Ir.string_of_cmp o); ops [ x; y ]
  | Ir.Not (d, x) -> tag 4 d; ops [ x ]
  | Ir.Mov (d, x) -> tag 5 d; ops [ x ]
  | Ir.I2f (d, x) -> tag 6 d; ops [ x ]
  | Ir.F2i (d, x) -> tag 7 d; ops [ x ]
  | Ir.Load (d, a, ix) -> tag 8 d; ops [ a; ix ]
  | Ir.Store (a, ix, v) -> Buffer.add_uint8 b 9; ops [ a; ix; v ]
  | Ir.Alen (d, a) -> tag 10 d; ops [ a ]
  | Ir.Call (None, f, args) ->
    Buffer.add_uint8 b 11; add_str b f; add_list b (add_operand b) args
  | Ir.Call (Some d, f, args) ->
    tag 12 d; add_str b f; add_list b (add_operand b) args
  | Ir.Print x -> Buffer.add_uint8 b 13; ops [ x ]

let add_term b = function
  | Ir.Jmp l -> Buffer.add_uint8 b 0; add_int b l
  | Ir.Br (c, t, e) -> Buffer.add_uint8 b 1; add_operand b c; add_int b t; add_int b e
  | Ir.Ret None -> Buffer.add_uint8 b 2
  | Ir.Ret (Some v) -> Buffer.add_uint8 b 3; add_operand b v

let add_func b (f : Ir.func) =
  add_str b f.Ir.name;
  add_list b (add_int b) f.Ir.params;
  add_int b f.Ir.nregs;
  add_int b f.Ir.entry;
  add_int b f.Ir.nlabels;
  add_list b
    (fun (n, elt, size) -> add_str b n; add_elt b elt; add_int b size)
    f.Ir.locals;
  add_int b (Ir.LMap.cardinal f.Ir.blocks);
  Ir.LMap.iter
    (fun l (blk : Ir.block) ->
      add_int b l;
      add_list b (add_instr b) blk.Ir.instrs;
      add_term b blk.Ir.term)
    f.Ir.blocks

(* An initializer's sub-digest: length, then each element's raw IEEE
   bits (so 0.0 and -0.0 differ, as they do to the simulator). *)
let init_bits (a : float array) =
  let n = Array.length a in
  let bytes = Bytes.create (8 * (n + 1)) in
  Bytes.set_int64_le bytes 0 (Int64.of_int n);
  Array.iteri
    (fun i v -> Bytes.set_int64_le bytes (8 * (i + 1)) (Int64.bits_of_float v))
    a;
  Digest.bytes bytes

(* Initializer arrays are never mutated after lowering (Mira.Ir's
   invariant) and passes never copy them — even packing rebuilds the
   global around the same array — so every program a sweep derives
   from one source shares its initializers physically.  Memoizing the
   sub-digest on physical identity therefore hashes each array once;
   later digests of the family pay only for the code.  The ephemeron
   table holds neither the arrays nor their programs alive.  Arrays
   shorter than [memo_min_len] skip it: the table then holds only the
   few arrays whose hashing is worth saving, and never the empty array,
   which is a static atom rather than a heap block. *)
module Init_memo = Ephemeron.K1.Make (struct
  type t = float array

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let init_memo = Init_memo.create 64
let memo_min_len = 64

let init_digest a =
  if Array.length a < memo_min_len then init_bits a
  else
    match Init_memo.find_opt init_memo a with
    | Some d -> d
    | None ->
      let d = init_bits a in
      Init_memo.replace init_memo a d;
      d

let digest (p : Ir.program) =
  let b = Buffer.create 4096 in
  add_str b format_tag;
  add_str b p.Ir.main;
  add_list b
    (fun (g : Ir.global) ->
      add_str b g.Ir.gname;
      add_elt b g.Ir.gelt;
      add_int b g.Ir.gsize;
      add_int b (Array.length g.Ir.ginit);
      Buffer.add_string b (init_digest g.Ir.ginit))
    p.Ir.globals;
  add_int b (Ir.SMap.cardinal p.Ir.funcs);
  Ir.SMap.iter
    (fun name f ->
      add_str b name;
      add_func b f)
    p.Ir.funcs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* digests are fixed-width hex, so '|' cannot occur in either part *)
let edge_key d pass = d ^ "|" ^ Pass.name pass

let touch t key v =
  t.stamp <- t.stamp + 1;
  Hashtbl.replace t.tbl key (v, t.stamp);
  Queue.add (key, t.stamp) t.order;
  while Hashtbl.length t.tbl > t.capacity do
    match Queue.take_opt t.order with
    | None -> Hashtbl.reset t.tbl (* unreachable: order covers tbl *)
    | Some (k, s) -> (
      match Hashtbl.find_opt t.tbl k with
      | Some (_, s') when s' = s ->
        Hashtbl.remove t.tbl k;
        t.stats.evictions <- t.stats.evictions + 1;
        Obs.Metrics.incr m_evictions
      | _ -> () (* stale pair *))
  done

let apply t p ~digest:d pass =
  let k = edge_key d pass in
  match Hashtbl.find_opt t.tbl k with
  | Some (v, _) ->
    t.stats.hits <- t.stats.hits + 1;
    Obs.Metrics.incr m_hits;
    touch t k v;
    v
  | None ->
    t.stats.misses <- t.stats.misses + 1;
    Obs.Metrics.incr m_misses;
    let p' = Pass.apply pass p in
    let v = (p', digest p') in
    touch t k v;
    v

let apply_sequence t p ~digest seq =
  List.fold_left (fun (p, d) pass -> apply t p ~digest:d pass) (p, digest) seq

let hits t = t.stats.hits
let misses t = t.stats.misses
let evictions t = t.stats.evictions
let resident t = Hashtbl.length t.tbl
