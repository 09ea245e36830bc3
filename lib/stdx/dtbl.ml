let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []

let sorted_keys ~cmp tbl = List.sort cmp (keys tbl)

let iter_sorted ~cmp f tbl =
  List.iter (fun k -> f k (Hashtbl.find tbl k)) (sorted_keys ~cmp tbl)

let fold_sorted ~cmp f tbl init =
  List.fold_left (fun acc k -> f k (Hashtbl.find tbl k) acc) init (sorted_keys ~cmp tbl)

let bindings_sorted ~cmp tbl =
  List.map (fun k -> (k, Hashtbl.find tbl k)) (sorted_keys ~cmp tbl)

let int_cmp = Int.compare

let pair_cmp (a1, a2) (b1, b2) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c else Int.compare a2 b2

let rec int_list_cmp a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a, y :: b ->
    let c = Int.compare x y in
    if c <> 0 then c else int_list_cmp a b
