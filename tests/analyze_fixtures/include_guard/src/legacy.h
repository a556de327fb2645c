// Fixture: `.h` headers are guarded too.

int legacy();
