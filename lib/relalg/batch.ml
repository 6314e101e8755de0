(* Vectorized physical operators.  A [source] is a pull-based stream of
   fixed-size batches of dictionary codes: every operator owns one set of
   output buffers, allocated once, so downstream compiled predicates bind
   to stable arrays and the inner loops are tight int loops with no
   per-row [Value] boxing.  Blocking operators (join build sides, group,
   distinct, sort) drain their input and index rows by *combined integer
   keys* — a dense array when the key domain (product of dictionary
   sizes) is small, open addressing with per-column code comparison
   otherwise.

   Lineage rides along as one more int vector: when the table a stream
   starts from is tracked, every batch also carries the row ids (indices
   into that table) of its rows, and materialization gathers the table's
   {!Lineage.row}s by them.  Untracked streams carry no id vector and
   their loops never look at one. *)

let batch_rows = 1024

type source = {
  schema : Schema.t;
  dicts : Dict.t array;
  cols : int array array;
      (* stable per-operator buffers; row [i] of the current batch is
         [cols.(j).(i)] for every column [j] *)
  width : int;
      (* max rows a single batch may carry: [batch_rows] for operators
         that re-batch, the full cardinality for borrowed table scans —
         consumers size their gather buffers to this *)
  pull : unit -> int;  (* rows in the next batch; -1 when exhausted *)
  lineage : Lineage.row array option;
      (* lineage of the table the stream started from, when tracked *)
  ids : int array;
      (* stable buffer: row [i] of the current batch is row [ids.(i)] of
         that table; [||], and never read, when [lineage] is [None] *)
}

let schema s = s.schema

(* Scan-copy accounting for sys.plan_ops: whole-column borrows vs the
   bytes the engine still has to materialize (filter gathers, drains). *)
let relalg_metrics = lazy (Obs.Metrics.registry "relalg")

let bytes_borrowed =
  lazy (Obs.Metrics.counter (Lazy.force relalg_metrics) "batch.bytes_borrowed")

let bytes_copied =
  lazy (Obs.Metrics.counter (Lazy.force relalg_metrics) "batch.bytes_copied")

let word_bytes = Sys.word_size / 8

(* ------------------------------ sources ------------------------------ *)

(* A table's rows carry lineage when it already has some or tracking is
   on (then a base table gets its identity lineage), as in {!Table}. *)
let tracked_lineage t =
  if Table.lineage t <> None || Lineage.tracking () then
    Some (Table.lineage_rows t)
  else None

(* One batch of [n] rows over [cols], emitted on the first pull. *)
let one_batch t ~cols ~ids ~n ~counter =
  let arity = Table.arity t in
  let lineage = tracked_lineage t in
  let spent = ref false in
  let pull () =
    if !spent then -1
    else begin
      spent := true;
      Obs.Metrics.add (Lazy.force counter) (word_bytes * arity * n);
      n
    end
  in
  {
    schema = Table.schema t;
    dicts = Array.init arity (Table.dict t);
    cols;
    width = max 1 n;
    pull;
    lineage;
    ids = (if Option.is_some lineage then ids () else [||]);
  }

(* A table scan consumes entire stored columns with no selection vector,
   so there is nothing to re-batch: hand out the table's own code
   buffers (immutable by {!Table.codes}' contract) as one full-width
   batch instead of blitting [batch_rows]-sized windows.  Downstream
   operators bind buffers once before the first pull either way. *)
let of_table t =
  let n = Table.cardinality t in
  one_batch t
    ~cols:(Array.init (Table.arity t) (Table.codes t))
    ~ids:(fun () -> Array.init n Fun.id)
    ~n ~counter:bytes_borrowed

let of_rows t idx =
  let n = Array.length idx in
  one_batch t
    ~cols:
      (Array.init (Table.arity t) (fun j ->
           let src = Table.codes t j in
           Array.map (fun i -> src.(i)) idx))
    ~ids:(fun () -> idx)
    ~n ~counter:bytes_copied

(* --------------------------- streaming ops --------------------------- *)

let select ?funcs pred src =
  let arity = Array.length src.cols in
  let check =
    Expr.compile_columns ?funcs src.schema
      ~dict:(fun j -> src.dicts.(j))
      ~codes:(fun j -> src.cols.(j))
      pred
  in
  let out = Array.init arity (fun _ -> Array.make src.width 0) in
  let sel = Array.make src.width 0 in
  let ids =
    if Option.is_some src.lineage then Array.make src.width 0 else [||]
  in
  let pull () =
    let n = src.pull () in
    if n < 0 then -1
    else begin
      (* selection vector first, then a per-column gather: the classic
         vectorized filter shape *)
      let m = ref 0 in
      for i = 0 to n - 1 do
        if check i then begin
          sel.(!m) <- i;
          incr m
        end
      done;
      let m = !m in
      for j = 0 to arity - 1 do
        let s = src.cols.(j) and d = out.(j) in
        for k = 0 to m - 1 do
          Array.unsafe_set d k (Array.unsafe_get s (Array.unsafe_get sel k))
        done
      done;
      if Option.is_some src.lineage then
        for k = 0 to m - 1 do
          ids.(k) <- src.ids.(sel.(k))
        done;
      Obs.Metrics.add (Lazy.force bytes_copied) (word_bytes * arity * m);
      m
    end
  in
  { src with cols = out; ids; pull }

let project cols src =
  (* zero-copy: the projected source aliases the parent's buffers *)
  let js = List.map (Schema.index src.schema) cols in
  {
    schema = Schema.project src.schema cols;
    dicts = Array.of_list (List.map (fun j -> src.dicts.(j)) js);
    cols = Array.of_list (List.map (fun j -> src.cols.(j)) js);
    width = src.width;
    pull = src.pull;
    lineage = src.lineage;
    ids = src.ids;
  }

let tap f src =
  let pull () =
    let b = src.pull () in
    if b > 0 then f b;
    b
  in
  { src with pull }

let timed f src =
  let pull () =
    let t0 = Obs.Clock.now_ns () in
    let b = src.pull () in
    f (Obs.Clock.since t0) b;
    b
  in
  { src with pull }

let limit n src =
  let remaining = ref n in
  let pull () =
    if !remaining <= 0 then -1
    else
      let b = src.pull () in
      if b < 0 then -1
      else begin
        let k = min b !remaining in
        remaining := !remaining - k;
        k
      end
  in
  { src with pull }

(* ------------------------------ draining ----------------------------- *)

(* Accumulate a whole stream into growable per-column code arrays (and
   the row ids, when the stream is tracked). *)
let drain src =
  let arity = Array.length src.cols in
  let tracked = Option.is_some src.lineage in
  let cap = ref (max batch_rows src.width) in
  let data = ref (Array.init arity (fun _ -> Array.make !cap 0)) in
  let ids = ref (if tracked then Array.make !cap 0 else [||]) in
  let n = ref 0 in
  let grow d =
    let d' = Array.make !cap 0 in
    Array.blit d 0 d' 0 !n;
    d'
  in
  let rec loop () =
    let b = src.pull () in
    if b >= 0 then begin
      if !n + b > !cap then begin
        cap := max (2 * !cap) (!n + b);
        data := Array.map grow !data;
        if tracked then ids := grow !ids
      end;
      Obs.Metrics.add (Lazy.force bytes_copied) (word_bytes * arity * b);
      let dst = !data in
      for j = 0 to arity - 1 do
        Array.blit src.cols.(j) 0 dst.(j) !n b
      done;
      if tracked then Array.blit src.ids 0 !ids !n b;
      n := !n + b;
      loop ()
    end
  in
  loop ();
  (!data, !ids, !n)

(* The lineage of [m] materialized rows whose row ids are
   [ids.(idx k)]. *)
let gather_lineage src ids m idx =
  Option.map (fun lin -> Array.init m (fun k -> lin.(ids.(idx k)))) src.lineage

let to_table ~name src =
  let data, ids, n = drain src in
  Table.of_columns
    ?lineage:(gather_lineage src ids n Fun.id)
    ~name src.schema ~nrows:n
    (Array.mapi (fun j d -> (src.dicts.(j), d)) data)

let count src =
  let n = ref 0 in
  let rec loop () =
    let b = src.pull () in
    if b >= 0 then begin
      n := !n + b;
      loop ()
    end
  in
  loop ();
  !n

(* ----------------------------- key indexes --------------------------- *)

(* Dense combined keys are only worth a direct-address table while the
   key domain stays small; 1<<16 caps the heads array at 512 KB. *)
let dense_limit = 1 lsl 16

(* Product of the key dictionaries' sizes, or -1 when it exceeds
   [dense_limit] (use the generic open-addressing index instead). *)
let dense_domain dicts =
  Array.fold_left
    (fun acc d ->
      if acc < 0 then -1
      else
        let s = max 1 (Dict.size d) in
        let p = acc * s in
        if p > dense_limit then -1 else p)
    1 dicts

let mix k =
  let h = k * 0x2545F4914F6CDD1 in
  (h lxor (h lsr 29)) land max_int

let rec pow2_at_least n = if n <= 16 then 16 else 2 * pow2_at_least ((n + 1) / 2)

(* Open-addressing set of rows keyed by their code tuple: [slot] holds a
   caller-supplied id per distinct key, resolved by hashing the codes and
   comparing column-by-column.  No boxing, no polymorphic hash. *)
type rowset = {
  mask : int;
  slots : int array;  (* id or -1 *)
  hash_of : int -> int;  (* row -> hash of its code tuple *)
  same_key : int -> int -> bool;  (* candidate row vs stored id *)
}

let make_rowset ~expected ~hash_of ~same_key =
  let cap = pow2_at_least (4 * max 1 expected) in
  { mask = cap - 1; slots = Array.make cap (-1); hash_of; same_key }

(* Slot holding this row's key: either already claimed by an equal key
   (slots.(i) >= 0) or the free slot to claim. *)
let rowset_slot rs row =
  let rec probe i =
    let id = rs.slots.(i) in
    if id < 0 || rs.same_key row id then i else probe ((i + 1) land rs.mask)
  in
  probe (mix (rs.hash_of row) land rs.mask)

let hash_codes cols arity i =
  let h = ref 0 in
  for j = 0 to arity - 1 do
    h := (!h * 1000003) + cols.(j).(i)
  done;
  !h

(* ------------------------------ group by ----------------------------- *)

(* First-occurrence-ordered group count, exactly like {!Ops.group_count}
   but over combined int keys.  Returns the [by @ ["count"]] table the
   SQL layer materializes for GROUP BY. *)
let group_table ~by src =
  let src = project by src in
  let arity = Array.length src.cols in
  let out_cap = ref 64 in
  let out = ref (Array.init arity (fun _ -> Array.make !out_cap 0)) in
  let counts = ref (Array.make !out_cap 0) in
  let ngroups = ref 0 in
  let grow () =
    let cap' = 2 * !out_cap in
    out :=
      Array.map
        (fun d ->
          let d' = Array.make cap' 0 in
          Array.blit d 0 d' 0 !ngroups;
          d')
        !out;
    let c' = Array.make cap' 0 in
    Array.blit !counts 0 c' 0 !ngroups;
    counts := c';
    out_cap := cap'
  in
  let add_group i =
    if !ngroups = !out_cap then grow ();
    let g = !ngroups in
    let dst = !out in
    for j = 0 to arity - 1 do
      dst.(j).(g) <- src.cols.(j).(i)
    done;
    !counts.(g) <- 1;
    incr ngroups;
    g
  in
  let bump g = !counts.(g) <- !counts.(g) + 1 in
  let dense = dense_domain src.dicts in
  if dense >= 0 then begin
    let slot_of = Array.make dense (-1) in
    (* radix weights hoisted out of the scan: the per-row key is a tight
       multiply-add chain with no dictionary lookups *)
    let weights = Array.map (fun d -> max 1 (Dict.size d)) src.dicts in
    let key i =
      let k = ref 0 in
      for j = 0 to arity - 1 do
        k :=
          (!k * Array.unsafe_get weights j)
          + Array.unsafe_get (Array.unsafe_get src.cols j) i
      done;
      !k
    in
    let rec loop () =
      let b = src.pull () in
      if b >= 0 then begin
        for i = 0 to b - 1 do
          let k = key i in
          let g = Array.unsafe_get slot_of k in
          if g >= 0 then bump g else Array.unsafe_set slot_of k (add_group i)
        done;
        loop ()
      end
    in
    loop ()
  end
  else begin
    let rs =
      make_rowset ~expected:4096
        ~hash_of:(fun i -> hash_codes src.cols arity i)
        ~same_key:(fun i g ->
          let ok = ref true in
          let stored = !out in
          for j = 0 to arity - 1 do
            if src.cols.(j).(i) <> stored.(j).(g) then ok := false
          done;
          !ok)
    in
    (* the fixed-capacity set only covers the expected group count; past
       that the dedup falls back to growing the table by rehashing *)
    let rs = ref rs in
    let rehash () =
      let old = !rs in
      let bigger =
        make_rowset
          ~expected:(2 * (old.mask + 1))
          ~hash_of:(fun g -> hash_codes !out arity g)
          ~same_key:(fun a b ->
            let ok = ref true in
            let stored = !out in
            for j = 0 to arity - 1 do
              if stored.(j).(a) <> stored.(j).(b) then ok := false
            done;
            !ok)
      in
      for g = 0 to !ngroups - 1 do
        let s = rowset_slot bigger g in
        bigger.slots.(s) <- g
      done;
      (* rebind lookups to batch rows against the regrown slots *)
      rs :=
        {
          bigger with
          hash_of = old.hash_of;
          same_key = old.same_key;
        }
    in
    let rec loop () =
      let b = src.pull () in
      if b >= 0 then begin
        for i = 0 to b - 1 do
          let s = rowset_slot !rs i in
          let g = !rs.slots.(s) in
          if g >= 0 then bump g
          else begin
            let g = add_group i in
            !rs.slots.(s) <- g;
            if 2 * !ngroups > !rs.mask then rehash ()
          end
        done;
        loop ()
      end
    in
    loop ()
  end;
  let n = !ngroups in
  let count_dict = Dict.create () in
  let count_codes =
    Array.init n (fun g -> Dict.intern count_dict (Value.Int !counts.(g)))
  in
  Table.of_columns ~name:"<group>"
    (Schema.of_list (Schema.columns src.schema @ [ "count" ]))
    ~nrows:n
    (Array.append
       (Array.mapi (fun j d -> (src.dicts.(j), d)) !out)
       [| (count_dict, count_codes) |])

(* ------------------------------ distinct ----------------------------- *)

(* Keep the first occurrence of each code tuple, like {!Table.distinct},
   deduplicating on the fly so the full input is never materialized. *)
let distinct_table ~name src =
  let arity = Array.length src.cols in
  let tracked = Option.is_some src.lineage in
  let out_cap = ref 64 in
  let out = ref (Array.init arity (fun _ -> Array.make !out_cap 0)) in
  (* row ids of the kept first occurrences, when tracked *)
  let kept_ids = ref (if tracked then Array.make !out_cap 0 else [||]) in
  let kept = ref 0 in
  let add_row i =
    if !kept = !out_cap then begin
      let cap' = 2 * !out_cap in
      let grow d =
        let d' = Array.make cap' 0 in
        Array.blit d 0 d' 0 !kept;
        d'
      in
      out := Array.map grow !out;
      if tracked then kept_ids := grow !kept_ids;
      out_cap := cap'
    end;
    let dst = !out in
    for j = 0 to arity - 1 do
      dst.(j).(!kept) <- src.cols.(j).(i)
    done;
    if tracked then !kept_ids.(!kept) <- src.ids.(i);
    incr kept;
    !kept - 1
  in
  let dense = dense_domain src.dicts in
  if dense >= 0 then begin
    let seen = Array.make dense false in
    let weights = Array.map (fun d -> max 1 (Dict.size d)) src.dicts in
    let key i =
      let k = ref 0 in
      for j = 0 to arity - 1 do
        k :=
          (!k * Array.unsafe_get weights j)
          + Array.unsafe_get (Array.unsafe_get src.cols j) i
      done;
      !k
    in
    let rec loop () =
      let b = src.pull () in
      if b >= 0 then begin
        for i = 0 to b - 1 do
          let k = key i in
          if not seen.(k) then begin
            seen.(k) <- true;
            ignore (add_row i)
          end
        done;
        loop ()
      end
    in
    loop ()
  end
  else begin
    let make expected =
      make_rowset ~expected
        ~hash_of:(fun i -> hash_codes src.cols arity i)
        ~same_key:(fun i g ->
          let ok = ref true in
          let stored = !out in
          for j = 0 to arity - 1 do
            if src.cols.(j).(i) <> stored.(j).(g) then ok := false
          done;
          !ok)
    in
    let rs = ref (make 4096) in
    let rehash () =
      let bigger = make (2 * (!rs.mask + 1)) in
      for g = 0 to !kept - 1 do
        let s =
          let rec probe i =
            if bigger.slots.(i) < 0 then i else probe ((i + 1) land bigger.mask)
          in
          probe (mix (hash_codes !out arity g) land bigger.mask)
        in
        bigger.slots.(s) <- g
      done;
      rs := bigger
    in
    let rec loop () =
      let b = src.pull () in
      if b >= 0 then begin
        for i = 0 to b - 1 do
          let s = rowset_slot !rs i in
          if !rs.slots.(s) < 0 then begin
            let g = add_row i in
            !rs.slots.(s) <- g;
            if 2 * !kept > !rs.mask then rehash ()
          end
        done;
        loop ()
      end
    in
    loop ()
  end;
  Table.of_columns
    ?lineage:(gather_lineage src !kept_ids !kept Fun.id)
    ~name src.schema ~nrows:!kept
    (Array.mapi (fun j d -> (src.dicts.(j), d)) !out)

(* ----------------------------- sort / top-k --------------------------- *)

let sort_comparator keys schema dicts data n =
  let cols =
    List.map
      (fun (c, dir) ->
        let j = Schema.index schema c in
        let d = dicts.(j) and cs = data.(j) in
        (Array.init n (fun i -> Dict.value d cs.(i)), dir))
      keys
  in
  let rec cmp cols a b =
    match cols with
    | [] -> 0
    | (vals, dir) :: rest ->
        let r = Value.order vals.(a) vals.(b) in
        let r = match dir with `Asc -> r | `Desc -> -r in
        if r <> 0 then r else cmp rest a b
  in
  cmp cols

let gather_block ~name src data ids idx m =
  let arity = Array.length data in
  let cols =
    Array.init arity (fun j ->
        let col = data.(j) in
        let d = Array.make (max 1 m) 0 in
        for k = 0 to m - 1 do
          d.(k) <- col.(idx.(k))
        done;
        (src.dicts.(j), d))
  in
  Table.of_columns
    ?lineage:(gather_lineage src ids m (fun k -> idx.(k)))
    ~name src.schema ~nrows:m cols

let sort_table ~name keys src =
  let data, ids, n = drain src in
  let cmp = sort_comparator keys src.schema src.dicts data n in
  let idx =
    Array.of_list (List.stable_sort cmp (List.init n Fun.id))
  in
  gather_block ~name src data ids idx n

(* Bounded top-k: the first [k] rows of the stable sort, computed with a
   sorted insertion buffer of size [k] instead of sorting (or even fully
   gathering) all [n] rows.  The comparator is made total by the row
   index, so ties resolve to input order exactly like the stable sort. *)
let topk_limit = 256

let topk_table ~name k keys src =
  let data, ids, n = drain src in
  if k >= n || k > topk_limit then begin
    let cmp = sort_comparator keys src.schema src.dicts data n in
    let idx = Array.of_list (List.stable_sort cmp (List.init n Fun.id)) in
    let m = min k n in
    gather_block ~name src data ids idx m
  end
  else begin
    let cmp0 = sort_comparator keys src.schema src.dicts data n in
    let cmp a b =
      let r = cmp0 a b in
      if r <> 0 then r else compare a b
    in
    let keep = Array.make (max 1 k) 0 in
    let m = ref 0 in
    (* insertion point: first slot whose row orders after [i] *)
    let insert_at i =
      let lo = ref 0 and hi = ref !m in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cmp i keep.(mid) < 0 then hi := mid else lo := mid + 1
      done;
      !lo
    in
    for i = 0 to n - 1 do
      if !m < k then begin
        let at = insert_at i in
        Array.blit keep at keep (at + 1) (!m - at);
        keep.(at) <- i;
        incr m
      end
      else if k > 0 && cmp i keep.(k - 1) < 0 then begin
        let at = insert_at i in
        Array.blit keep at keep (at + 1) (k - 1 - at);
        keep.(at) <- i
      end
    done;
    gather_block ~name src data ids keep !m
  end

(* ------------------------------- join -------------------------------- *)

(* Hash equi-join on dictionary codes with explicit build-side choice.
   Output columns are all [ta] columns then the non-key [tb] columns,
   rows in [ta]-major order with matches in [tb] row order, whichever
   side carries the index: building on the left collects pairs
   probe-major and a stable counting sort by [ia] restores that order.
   Each output row's lineage merges both parents' ({!Ops.pair_lineage}). *)
let join_tables ?build_left ~on ta tb =
  let sa = Table.schema ta and sb = Table.schema tb in
  let a_keys = List.map (fun (a, _) -> Schema.index sa a) on in
  let b_keys = List.map (fun (_, b) -> Schema.index sb b) on in
  let b_key_cols = List.map snd on in
  let kept_b =
    List.filter (fun c -> not (List.mem c b_key_cols)) (Schema.columns sb)
  in
  List.iter
    (fun c -> if Schema.mem sa c then raise (Ops.Schema_clash c))
    kept_b;
  let na = Table.cardinality ta and nb = Table.cardinality tb in
  let build_left =
    match build_left with Some b -> b | None -> na < nb
  in
  (* [bt] owns the index; [pt] streams through it. *)
  let bt, pt, b_keyix, p_keyix =
    if build_left then (ta, tb, a_keys, b_keys) else (tb, ta, b_keys, a_keys)
  in
  let nbuild = Table.cardinality bt and nprobe = Table.cardinality pt in
  let nkeys = List.length on in
  let bcols = Array.of_list (List.map (Table.codes bt) b_keyix) in
  let bdicts = Array.of_list (List.map (Table.dict bt) b_keyix) in
  let pcols = Array.of_list (List.map (Table.codes pt) p_keyix) in
  let trans =
    Array.of_list
      (List.map2
         (fun jp jb ->
           let dp = Table.dict pt jp and db = Table.dict bt jb in
           if dp == db then None else Some (Dict.translate ~from:dp ~into:db))
         p_keyix b_keyix)
  in
  (* translated probe key, written into [k]; false = no possible match *)
  let key_into k ip =
    let ok = ref true in
    for j = 0 to nkeys - 1 do
      let c = pcols.(j).(ip) in
      let c' = match trans.(j) with None -> c | Some map -> map.(c) in
      if c' < 0 then ok := false else k.(j) <- c'
    done;
    !ok
  in
  let next = Array.make (max 1 nbuild) (-1) in
  let dense = dense_domain bdicts in
  let scratch = Array.make (max 1 nkeys) 0 in
  (* [find]: head of the chain for the translated key in [scratch] *)
  let find =
    if dense >= 0 then begin
      let heads = Array.make dense (-1) in
      let weights = Array.map (fun d -> max 1 (Dict.size d)) bdicts in
      let key cols i =
        let k = ref 0 in
        for j = 0 to nkeys - 1 do
          k := (!k * Array.unsafe_get weights j) + cols j i
        done;
        !k
      in
      (* insert high-to-low so every chain lists build rows ascending *)
      for ib = nbuild - 1 downto 0 do
        let k = key (fun j i -> bcols.(j).(i)) ib in
        next.(ib) <- heads.(k);
        heads.(k) <- ib
      done;
      fun () -> heads.(key (fun j _ -> scratch.(j)) 0)
    end
    else begin
      let cap = pow2_at_least (4 * max 1 nbuild) in
      let mask = cap - 1 in
      let keys = Array.make cap (-1) in
      (* first build row of the slot's chain; keys compare per column *)
      let heads = Array.make cap (-1) in
      let hash cols i =
        let h = ref 0 in
        for j = 0 to nkeys - 1 do
          h := (!h * 1000003) + cols j i
        done;
        mix !h land mask
      in
      let same cols i ib =
        let ok = ref true in
        for j = 0 to nkeys - 1 do
          if cols j i <> bcols.(j).(ib) then ok := false
        done;
        !ok
      in
      let slot cols i =
        let rec probe s =
          if keys.(s) < 0 || same cols i keys.(s) then s
          else probe ((s + 1) land mask)
        in
        probe (hash cols i)
      in
      for ib = nbuild - 1 downto 0 do
        let s = slot (fun j i -> bcols.(j).(i)) ib in
        if keys.(s) < 0 then keys.(s) <- ib;
        next.(ib) <- heads.(s);
        heads.(s) <- ib
      done;
      fun () ->
        let s = slot (fun j _ -> scratch.(j)) 0 in
        if keys.(s) < 0 then -1 else heads.(s)
    end
  in
  (* probe in order, pushing matches into growable pair buffers *)
  let cap = ref 64 in
  let ip_arr = ref (Array.make !cap 0) and ib_arr = ref (Array.make !cap 0) in
  let m = ref 0 in
  let push ip ib =
    if !m = !cap then begin
      cap := 2 * !cap;
      let grow a =
        let a' = Array.make !cap 0 in
        Array.blit a 0 a' 0 !m;
        a'
      in
      ip_arr := grow !ip_arr;
      ib_arr := grow !ib_arr
    end;
    !ip_arr.(!m) <- ip;
    !ib_arr.(!m) <- ib;
    incr m
  in
  for ip = 0 to nprobe - 1 do
    if key_into scratch ip then begin
      let b = ref (find ()) in
      while !b >= 0 do
        push ip !b;
        b := next.(!b)
      done
    end
  done;
  let m = !m in
  let ias, ibs =
    if not build_left then (!ip_arr, !ib_arr)
    else begin
      (* pairs are (probe=ib)-major; stable counting sort by the build
         row [ia] restores ta-major order with tb matches ascending *)
      let counts = Array.make (na + 1) 0 in
      let bsrc = !ib_arr in
      for k = 0 to m - 1 do
        counts.(bsrc.(k) + 1) <- counts.(bsrc.(k) + 1) + 1
      done;
      for i = 1 to na do
        counts.(i) <- counts.(i) + counts.(i - 1)
      done;
      let ias = Array.make (max 1 m) 0 and ibs = Array.make (max 1 m) 0 in
      let psrc = !ip_arr in
      for k = 0 to m - 1 do
        let ia = bsrc.(k) in
        let at = counts.(ia) in
        counts.(ia) <- at + 1;
        ias.(at) <- ia;
        ibs.(at) <- psrc.(k)
      done;
      (ias, ibs)
    end
  in
  (* a semijoin-shaped result (every ta row matched exactly once, in
     order) needs no gather at all: the output's ta columns are ta's own
     immutable code arrays, shared zero-copy like {!Ops.project} *)
  let identity idxs n =
    m = n
    &&
    let ok = ref true in
    for k = 0 to m - 1 do
      if Array.unsafe_get idxs k <> k then ok := false
    done;
    !ok
  in
  let col_from t idxs id j =
    let src = Table.codes t j in
    if id then (Table.dict t j, src)
    else begin
      let data = Array.make (max 1 m) 0 in
      for k = 0 to m - 1 do
        Array.unsafe_set data k
          (Array.unsafe_get src (Array.unsafe_get idxs k))
      done;
      (Table.dict t j, data)
    end
  in
  let ia_id = identity ias na in
  let ib_id = identity ibs (Table.cardinality tb) in
  let lineage =
    Option.map
      (fun combine -> Array.init m (fun k -> combine ias.(k) ibs.(k)))
      (Ops.pair_lineage ta tb)
  in
  Table.of_columns ?lineage
    ~name:(Table.name ta ^ "|x|" ^ Table.name tb)
    (Schema.append sa kept_b) ~nrows:m
    (Array.append
       (Array.init (Schema.arity sa) (col_from ta ias ia_id))
       (Array.of_list
          (List.map
             (fun jb -> col_from tb ibs ib_id jb)
             (List.map (Schema.index sb) kept_b))))
