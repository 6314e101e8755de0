let dir = -1
let mem = -2

type msg = { m : string; src : int; dst : int; addr : int; fresh : bool }

type busy = {
  bst : string;
  requester : int;
  acks : int;
  snapshot : int;
  data_fresh : bool;
}

type addr_state = {
  dirst : string;
  sharers : int;
  busy : busy option;
  mem_fresh : bool;
}

type t = {
  addrs : addr_state list;
  caches : string list list;
  pend : string option list list;
  queues : ((int * int * string) * msg list) list;
}

let initial ~nodes ~addrs =
  let addr0 = { dirst = "I"; sharers = 0; busy = None; mem_fresh = true } in
  {
    addrs = List.init addrs (fun _ -> addr0);
    caches = List.init nodes (fun _ -> List.init addrs (fun _ -> "I"));
    pend = List.init nodes (fun _ -> List.init addrs (fun _ -> None));
    queues = [];
  }

(* No_sharing matters for correctness, not just size: with sharing
   enabled the byte string depends on which of the (structurally equal)
   strings inside [t] are physically shared, so the same state reached
   through different rule firings could serialize differently and be
   visited twice.  The packed-vs-boxed differential suite caught exactly
   that: without this flag the boxed engine overcounts reachable
   states. *)
let key t = Marshal.to_string t [ Marshal.No_sharing ]

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun rest -> x :: rest)
            (permutations (List.filter (fun y -> y <> x) l)))
        l

let permute m ~nodes t =
  let remap_mask mask =
    List.fold_left
      (fun acc j -> if mask land (1 lsl j) <> 0 then acc lor (1 lsl (m j)) else acc)
      0
      (List.init nodes Fun.id)
  in
  let remap_endpoint e = if e >= 0 then m e else e in
  let reorder l =
    (* new position (m j) holds old entry j *)
    let arr = Array.of_list l in
    let out = Array.make (Array.length arr) (Array.get arr 0) in
    List.iteri (fun j x -> out.(m j) <- x) (Array.to_list arr);
    ignore l;
    Array.to_list out
  in
  {
    addrs =
      List.map
        (fun a ->
          {
            a with
            sharers = remap_mask a.sharers;
            busy =
              Option.map
                (fun b ->
                  {
                    b with
                    requester = remap_endpoint b.requester;
                    acks = remap_mask b.acks;
                    snapshot = remap_mask b.snapshot;
                  })
                a.busy;
          })
        t.addrs;
    caches = reorder t.caches;
    pend = reorder t.pend;
    queues =
      List.sort compare
        (List.map
           (fun ((src, dst, cls), q) ->
             ( (remap_endpoint src, remap_endpoint dst, cls),
               List.map
                 (fun msg ->
                   { msg with src = remap_endpoint msg.src;
                     dst = remap_endpoint msg.dst })
                 q ))
           t.queues);
  }

let canonical_key ~nodes t =
  let ids = List.init nodes Fun.id in
  List.fold_left
    (fun best perm ->
      let arr = Array.of_list perm in
      let k = key (permute (fun j -> arr.(j)) ~nodes t) in
      match best with Some b when b <= k -> best | _ -> Some k)
    None (permutations ids)
  |> Option.get

(* [l] with element [i] replaced by [x]: the prefix is copied, the tail
   after [i] shared. *)
let rec replace_nth l i x =
  match l with
  | [] -> []
  | y :: rest -> if i = 0 then x :: rest else y :: replace_nth rest (i - 1) x

(* [rows] with cell ([i], [j]) replaced by [x], sharing the same way *)
let rec replace_cell rows i j x =
  match rows with
  | [] -> []
  | row :: rest ->
      if i = 0 then replace_nth row j x :: rest
      else row :: replace_cell rest (i - 1) j x

(* The order [queues] is kept sorted in — (src, dst, class),
   lexicographically, as polymorphic [compare] orders the key — without
   its generic traversal. *)
let compare_key ((s1, d1, c1) : int * int * string) (s2, d2, c2) =
  if s1 <> s2 then Int.compare s1 s2
  else if d1 <> d2 then Int.compare d1 d2
  else String.compare c1 c2

let enqueue t ~cls msg =
  let k = msg.src, msg.dst, cls in
  let rec go = function
    | [] -> [ k, [ msg ] ]
    | ((k', q) as entry) :: rest ->
        let c = compare_key k' k in
        if c = 0 then (k, q @ [ msg ]) :: rest
        else if c > 0 then (k, [ msg ]) :: entry :: rest
        else entry :: go rest
  in
  { t with queues = go t.queues }

let dequeue t k =
  let rec go = function
    | [] -> None
    | ((k', q) as entry) :: rest -> (
        if compare_key k' k <> 0 then
          Option.map (fun (msg, rest) -> (msg, entry :: rest)) (go rest)
        else
          match q with
          | [] -> None
          | [ msg ] -> Some (msg, rest)
          | msg :: q' -> Some (msg, (k', q') :: rest))
  in
  Option.map (fun (msg, queues) -> (msg, { t with queues })) (go t.queues)

let queue_heads t =
  List.filter_map
    (fun (k, q) -> match q with [] -> None | m :: _ -> Some (k, m))
    t.queues

let addr_state t a = List.nth t.addrs a
let set_addr t a st = { t with addrs = replace_nth t.addrs a st }
let cache t ~node ~addr = List.nth (List.nth t.caches node) addr

let set_cache t ~node ~addr st =
  { t with caches = replace_cell t.caches node addr st }

let pending t ~node ~addr = List.nth (List.nth t.pend node) addr

let set_pending t ~node ~addr op =
  { t with pend = replace_cell t.pend node addr op }

let popcount mask =
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0 mask

let pv_encode mask =
  match popcount mask with 0 -> "zero" | 1 -> "one" | _ -> "gone"

let quiescent t =
  t.queues = []
  && List.for_all (fun a -> a.busy = None) t.addrs
  && List.for_all (List.for_all Option.is_none) t.pend

let pp fmt t =
  let node_sets mask =
    String.concat ","
      (List.filter_map
         (fun i -> if mask land (1 lsl i) <> 0 then Some (string_of_int i) else None)
         (List.init 16 Fun.id))
  in
  List.iteri
    (fun a st ->
      Format.fprintf fmt "addr %d: dir=%s sharers={%s}%s memfresh=%b@." a
        st.dirst (node_sets st.sharers)
        (match st.busy with
        | None -> ""
        | Some b ->
            Printf.sprintf " busy=%s req=%d acks={%s}" b.bst b.requester
              (node_sets b.acks))
        st.mem_fresh)
    t.addrs;
  List.iteri
    (fun n row ->
      Format.fprintf fmt "node %d: cache=[%s] pend=[%s]@." n
        (String.concat " " row)
        (String.concat " "
           (List.map (Option.value ~default:"-") (List.nth t.pend n))))
    t.caches;
  List.iter
    (fun ((src, dst, cls), q) ->
      Format.fprintf fmt "queue %d->%d %s: %s@." src dst cls
        (String.concat " " (List.map (fun m -> Printf.sprintf "%s(a%d)" m.m m.addr) q)))
    t.queues
