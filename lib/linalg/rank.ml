let of_mat ?tol a = Svd.rank ?tol (Svd.factor ~vectors:Values a)
