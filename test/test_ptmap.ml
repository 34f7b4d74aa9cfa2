(* The abstract store's Patricia tree against Stdlib's Map over ints: every
   operation agrees with the model, and merge keeps the contract the state
   merge relies on — f on common keys only, in descending order, and the
   left map itself when nothing changes. *)

module P = Satb_core.Ptmap
module M = Map.Make (Int)
module G = QCheck2.Gen

(* small keys, keys on either side of a field-bit boundary of the
   location layout, and keys up to [max_int] *)
let key =
  let bits = Satb_core.State.Loc.field_bits in
  G.oneof
    [
      G.int_range 0 40;
      G.map2
        (fun sym f -> (sym lsl bits) lor f)
        (G.oneof [ G.int_range 0 4; G.return ((max_int lsr bits) - 1) ])
        (G.oneofl [ 0; 1; (1 lsl bits) - 2; (1 lsl bits) - 1 ]);
      G.int_range 0 max_int;
    ]

let bindings = G.list_size (G.int_range 0 30) (G.pair key (G.int_range 0 9))
let of_list l = List.fold_left (fun t (k, v) -> P.add k v t) P.empty l
let model l = List.fold_left (fun m (k, v) -> M.add k v m) M.empty l
let agrees p m = P.bindings p = M.bindings m

let prop name ?(count = 500) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let lookups =
  prop "find and mem agree with Map" (G.pair bindings (G.list key))
    (fun (l, probes) ->
      let p = of_list l and m = model l in
      List.for_all
        (fun k ->
          P.find_opt k p = M.find_opt k m
          && P.mem k p = M.mem k m
          && match P.find k p with
             | v -> M.find_opt k m = Some v
             | exception Not_found -> not (M.mem k m))
        (List.map fst l @ probes))

let updates =
  let op = G.pair G.bool (G.pair key (G.int_range 0 9)) in
  prop "add and remove agree with Map" (G.list_size (G.int_range 0 60) op)
    (fun ops ->
      let p, m =
        List.fold_left
          (fun (p, m) (is_add, (k, v)) ->
            if is_add then (P.add k v p, M.add k v m)
            else (P.remove k p, M.remove k m))
          (P.empty, M.empty) ops
      in
      agrees p m)

let unchanged =
  prop "add of the bound value and remove of an absent key share"
    (G.pair bindings key) (fun (l, k) ->
      let p = of_list l in
      let absent = if P.mem k p then P.remove k p else p in
      P.remove k absent == absent
      && List.for_all (fun (k, _) -> P.add k (P.find k p) p == p) l)

let folds =
  prop "fold and bindings run in ascending key order" bindings (fun l ->
      let p = of_list l and m = model l in
      let cons k v acc = (k, v) :: acc in
      P.fold cons p [] = M.fold cons m [] && agrees p m)

let ranges =
  prop "fold_range folds exactly the keys in range"
    (G.triple bindings key key) (fun (l, a, b) ->
      let lo = min a b and hi = max a b in
      let p = of_list l and m = model l in
      let cons k v acc = (k, v) :: acc in
      P.fold_range lo hi cons p []
      = M.fold (fun k v acc -> if lo <= k && k <= hi then cons k v acc else acc) m [])

let maps =
  prop "map applies f to every binding and shares when unchanged" bindings
    (fun l ->
      let p = of_list l in
      agrees (P.map (fun k v -> k + v) p) (M.mapi (fun k v -> k + v) (model l))
      && P.map (fun _ v -> v) p == p)

let equality =
  prop "equal agrees with Map" (G.pair bindings bindings) (fun (l1, l2) ->
      let p1 = of_list l1 in
      (* one key set has one shape, whatever the insertion order *)
      P.equal Int.equal p1 (of_list (List.rev (P.bindings p1)))
      && P.equal Int.equal p1 (of_list l2)
         = M.equal Int.equal (model l1) (model l2))

(* [f] records its keys; its result is the model's *)
let recording () =
  let calls = ref [] in
  let f k a b =
    calls := k :: !calls;
    (a * 10) + b
  in
  (calls, f)

let merges =
  prop "merge is the union, f on common keys in descending order"
    (G.pair bindings bindings) (fun (l1, l2) ->
      let calls, f = recording () in
      let merged = P.merge f (of_list l1) (of_list l2) in
      let m1 = model l1 and m2 = model l2 in
      let common =
        M.fold (fun k _ acc -> if M.mem k m2 then k :: acc else acc) m1 []
      in
      agrees merged (M.union (fun _ a b -> Some ((a * 10) + b)) m1 m2)
      && List.rev !calls = common)

(* [t] shares every subtree of [s] but the path to [k], so [f] sees at
   most [k] *)
let shared_merges =
  prop "merge skips shared subtrees and keeps their bindings"
    (G.triple bindings key (G.int_range 0 9)) (fun (l, k, v) ->
      let s = of_list l in
      let t = P.add k v s in
      let calls, f = recording () in
      let f k a b = if a = b then a else f k a b in
      let merged = P.merge f s t in
      let m = model l in
      let expected =
        match M.find_opt k m with
        | Some a when a <> v -> M.add k ((a * 10) + v) m
        | Some _ -> m
        | None -> M.add k v m
      in
      agrees merged expected
      && List.for_all (Int.equal k) !calls
      && P.merge f s s == s)

let merge_sharing =
  prop "merge returns the left map when nothing changes"
    (G.pair bindings (G.list G.bool)) (fun (l, keep) ->
      let s = of_list l in
      (* t holds some of s's bindings, built apart from s *)
      let sub =
        List.filteri (fun i _ -> List.nth_opt keep i = Some true) (P.bindings s)
      in
      let t = of_list sub in
      let merged = P.merge (fun _ a _ -> a) s t in
      merged == s)

let tests =
  [
    lookups;
    updates;
    unchanged;
    folds;
    ranges;
    maps;
    equality;
    merges;
    shared_merges;
    merge_sharing;
  ]
